"""SHA-256 of every report of a fixed grid of command-line runs.

The grid is 6 scenarios x efficiency {1, 0.9, 0.5, 0.05} x seeds
{1, 7, 2**64 - 1} x rounds {1, 37, 2000, 70000} x {json, csv}: 576
``--check --deterministic-output`` reports, rendered in this process by
``hyperqkd.cli.main``. It prints one JSON object mapping each case to its
exit code and its report's SHA-256, so two checkouts can be compared:

    python3 tools/report_grid.py > before.json   # in one checkout
    python3 tools/report_grid.py > after.json    # in the other
    cmp before.json after.json

``--reports DIR`` keeps the reports in DIR, named by case, to see what
changed in the cases whose digests differ. The package is imported from
the ``src/`` beside this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (attack, eve bases): every scenario the command line can run.
SCENARIOS = (
    ("none", None),
    ("single", "random"),
    ("single", "same"),
    ("double", "random"),
    ("double", "same"),
    ("double", "different"),
)
EFFICIENCIES = ("1", "0.9", "0.5", "0.05")
SEEDS = ("1", "7", str(2**64 - 1))
ROUNDS = ("1", "37", "2000", "70000")
FORMATS = ("json", "csv")


def cases():
    """(name, argv without --out) for each report of the grid."""
    for (attack, eve), eff, seed, rounds, fmt in itertools.product(
        SCENARIOS, EFFICIENCIES, SEEDS, ROUNDS, FORMATS
    ):
        argv = ["--rounds", rounds, "--seed", seed, "--efficiency", eff,
                "--attack", attack, "--format", fmt, "--check", "--deterministic-output"]
        if eve is not None:
            argv += ["--eve-bases", eve]
        yield "-".join([attack, eve or "-", eff, seed, rounds, fmt]), argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reports", metavar="DIR",
                        help="keep the reports in DIR instead of a temporary directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from hyperqkd.cli import main as hyperqkd_main

    digests = {}
    with contextlib.ExitStack() as stack:
        out_dir = args.reports or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(out_dir, exist_ok=True)
        for name, case in cases():
            path = os.path.join(out_dir, name)
            # A failed --check prints its verdicts to stderr; the exit code
            # records it.
            with contextlib.redirect_stderr(io.StringIO()):
                code = hyperqkd_main(case + ["--out", path])
            with open(path, "rb") as handle:
                digests[name] = {"exit": code, "sha256": hashlib.sha256(handle.read()).hexdigest()}
    json.dump(digests, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
