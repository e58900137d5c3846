"""The names the benchmark's layer tracer patches still exist.

``perfbench/spans.py`` replaces functions of hyperqkd by module and
attribute name while ``perfbench/run.py --trace 1`` runs; a renamed or
removed name would only show up there, as a crash. This reads the
tracer's own list, so the two cannot drift apart.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hyperqkd.adversary import AttackConfig
from hyperqkd.rng import RandomSource

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    """The literal ``_FUNCTIONS`` tuple of spans.py, read without running it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _FUNCTIONS in {SPANS}")


@pytest.mark.parametrize("span,module,attr", _traced_functions())
def test_traced_function_exists(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("owner,attr", [(AttackConfig, "apply"), (RandomSource, "for_round")])
def test_traced_method_exists(owner, attr):
    assert attr in owner.__dict__
