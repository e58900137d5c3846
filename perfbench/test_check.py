"""Tests of the report checker; run with ``python -m pytest perfbench``.

They sit outside ``tests/`` so that the project's own suite does not run them.
"""

import json
import os
import sys

import pytest

import check

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from hyperqkd.cli import main  # noqa: E402

SCENARIOS = [
    ("none", None),
    ("single", "random"),
    ("single", "same"),
    ("double", "random"),
    ("double", "same"),
    ("double", "different"),
]


def _report(tmp_path, fmt, rounds, attack, eve_bases, efficiency=0.8, seed=11):
    out = tmp_path / f"{attack}-{eve_bases}-{rounds}.{fmt}"
    argv = ["--rounds", str(rounds), "--seed", str(seed), "--efficiency", str(efficiency),
            "--attack", attack, "--format", fmt, "--deterministic-output", "--out", str(out)]
    if eve_bases:
        argv += ["--eve-bases", eve_bases]
    assert main(argv) == 0
    expect = {"rounds": rounds, "seed": seed, "efficiency": efficiency,
              "attack": attack, "eve_bases": eve_bases}
    return out.read_text(), expect


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("attack,eve_bases", SCENARIOS)
def test_accepts_real_reports(tmp_path, fmt, attack, eve_bases):
    text, expect = _report(tmp_path, fmt, 10_000, attack, eve_bases)
    assert check.check_report(check.parse_report(text, fmt), expect) == []


def test_rejects_single_intercept_mismatch_of_030(tmp_path):
    text, expect = _report(tmp_path, "json", 100_000, "single", "random")
    doc = json.loads(text)
    doc["stats"]["same_basis_mismatch_rate"] = 0.30
    problems = check.check_report(check.parse_report(json.dumps(doc), "json"), expect)
    assert any(p.startswith("same_basis_mismatch_rate") for p in problems)


def test_rejects_unequal_keys_without_attack(tmp_path):
    text, expect = _report(tmp_path, "json", 5_000, "none", None)
    doc = json.loads(text)
    doc["keys"]["equal"] = False
    problems = check.check_report(check.parse_report(json.dumps(doc), "json"), expect)
    assert any(p.startswith("keys_equal") for p in problems)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rejects_broken_key_length_identity(tmp_path, fmt):
    text, expect = _report(tmp_path, fmt, 5_000, "double", "random")
    flat = check.parse_report(text, fmt)
    if fmt == "json":
        doc = json.loads(text)
        doc["stats"]["key_length"] += 1
        doc["keys"]["length"] += 1
        broken = json.dumps(doc)
    else:
        header, row = text.splitlines()
        cells = row.split(",")
        column = header.split(",").index("key_length")
        cells[column] = str(flat["key_length"] + 1)
        broken = header + "\n" + ",".join(cells) + "\n"
    problems = check.check_report(check.parse_report(broken, fmt), expect)
    assert any(p.startswith("key_length") for p in problems)


def test_empty_csv_cell_is_null(tmp_path):
    text, _ = _report(tmp_path, "csv", 2_000, "none", None)
    flat = check.parse_report(text, "csv")
    assert flat["eve_bases"] is None and flat["eve_information"] is None
    assert flat["keys_equal"] is True
