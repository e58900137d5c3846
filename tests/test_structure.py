"""Each module keeps its private names to itself.

A format, such as the decision word's fields or the packed key row, has
one owner module, and only the owner reads its private constants. Another
module that imported one would read the format too, so a change to it
would touch both. This parses every module of the package, without
importing it, and finds each relative ``from .x import`` of an underscore
name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperqkd"


def test_no_relative_import_brings_in_a_private_name():
    paths = sorted(PACKAGE.glob("*.py"))
    # A wrong path would find no module, and nothing to object to.
    assert paths, PACKAGE
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
