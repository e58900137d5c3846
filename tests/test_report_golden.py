"""Report bytes pinned by their SHA-256.

The digests below were taken from the ``--deterministic-output --check``
reports of the program as it was just before key extraction and Eve's
estimators became row-table gathers, generated on that earlier commit so
that the rewrite had to reproduce them. Ten of them were regenerated when
``eve_information_se`` moved from a floating-point dot product, whose sum
order depends on the BLAS thread count, to exact integer counts; those
reports changed only in the last digit of that field. Any change to a
report's bytes, in the statistics, the keys or the rendering, fails here. The cases are the
six scenarios at efficiency 1.0 and 0.5, in JSON and CSV, at 2 000
rounds, and one 70 000-round and one 10**6-round call per attack kind at
efficiency 0.9. The 70 000-round calls cross a 65 536-round block, the
engine's block size when they were pinned. The 10**6-round calls were
generated before the engine read whole rounds off one composed table in
16 384-round blocks, on the commit before that change; each crosses 62 of
those blocks and makes about 40 000 verification picks. All use seed 1.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import hyperqkd
from hyperqkd.cli import main

# (attack, eve bases, efficiency, format, rounds) -> SHA-256 of the report.
DIGESTS = {
    ("none", None, 1.0, "json", 2000):
        "a050f3e19693f368cb7bc00a1bfae3e0d6a3e0f017c8de1fa166e5d98051b1ed",
    ("none", None, 1.0, "csv", 2000):
        "17a693bac584c256c5627c9b81c3ab24ae3eee524b0061cf81a0b9e8c3ebf109",
    ("none", None, 0.5, "json", 2000):
        "7f237c72a62caa49e493c4d1bf9ac42c5fdb75c1a74d61ba568fba57afa4532b",
    ("none", None, 0.5, "csv", 2000):
        "66a41be1aeb75f25443fa63909bd5f0fee7bab4c8848cde0524163604554ffe7",
    ("single", "random", 1.0, "json", 2000):
        "c103959a184a7ba1050e7f8406cb512b121984f21c7db419ad67d25d44fa73f2",
    ("single", "random", 1.0, "csv", 2000):
        "9f27c0a7efdb84b8b70ff0e2950f8de5fa8171e9da27bf661b69ee6cbc4ccad0",
    ("single", "random", 0.5, "json", 2000):
        "647716ec5b940b93c9d717d3b256ff7ea5ed88cb653f09e16c0d042ff724b2aa",
    ("single", "random", 0.5, "csv", 2000):
        "b738d0f11696088bea6fad6dc07dabf7855a052231e71ca833c593ba3ff6a9ea",
    ("single", "same", 1.0, "json", 2000):
        "e1cba0a4d84b853fd098b57cac0ecaf941928e0579cb823d6ec3b62234cedbce",
    ("single", "same", 1.0, "csv", 2000):
        "ab849ffb866bf109145a0493866e4ac6664abe26c42b5e24d259c8f6f733f1eb",
    ("single", "same", 0.5, "json", 2000):
        "f86622aab14413c7a7e7ba9d8d795778b433ba48b8b3fbf2b285dde69b95e6a2",
    ("single", "same", 0.5, "csv", 2000):
        "648d46d503c10f6b6b20dbead4e0a2b1332a62716f34e37bd64ed0f592f34c56",
    ("double", "random", 1.0, "json", 2000):
        "c3375a6bf5c1d46865fe7fd17e025a9da4bc68ba4a935a0547df363971b9ce33",
    ("double", "random", 1.0, "csv", 2000):
        "676bfcf9b1ddb31a4ba259bed5a26f7e8977213ada3d6963ab8e957e2259a862",
    ("double", "random", 0.5, "json", 2000):
        "bcf1976ead6ed54777129820a17d2baed370d41b2e20d52bc828989ef47aa866",
    ("double", "random", 0.5, "csv", 2000):
        "6a37d82ef2e7e4d33774949f6437e7608f7d54b42b9b391c60f2654528c33e2f",
    ("double", "same", 1.0, "json", 2000):
        "f6a47b2644f4ff77763c2fed464d167633e1740fef747043b3349ccabf6a1a39",
    ("double", "same", 1.0, "csv", 2000):
        "b180fac0b62cc8dbdcf31b28a73912fad7ae4caec60f6e394e1eb002baa0d8fb",
    ("double", "same", 0.5, "json", 2000):
        "8396e79c41f8bc81f3478c61fb8cce2578d9c57fd912e8ce2c2a48418a33b468",
    ("double", "same", 0.5, "csv", 2000):
        "6ae0cc812c565b0164282eb7839ac6ea9f8aaa57bdb786e153269ec9c2546fe6",
    ("double", "different", 1.0, "json", 2000):
        "99f0b76f664b1679dac9bed94ff159c3f7ea2ebe427f56d9f4ab4e60b9c44650",
    ("double", "different", 1.0, "csv", 2000):
        "9242eaf00f09422c5aa19813873f57f074ca29c2becbafc873a9832ea6a7f768",
    ("double", "different", 0.5, "json", 2000):
        "a0b6c4dba2901ff4a345507a0a0de24ece1dd1a14d9ca7495012f521a996266d",
    ("double", "different", 0.5, "csv", 2000):
        "a6cdf7a3ed418e267cdd8a1c3ac97def04a44815c9141ad11621e41480258cc9",
    ("none", None, 0.9, "json", 70000):
        "2c85ac2aada7255692fda1407bedb60409ae75b1ff39b1c4310dac707bc134de",
    ("single", None, 0.9, "json", 70000):
        "87a5093d72af551085fffac5b6d3fe73d2150b7a97ddbcf8ffe3964fddb15786",
    ("double", None, 0.9, "json", 70000):
        "a17320abe24ac5fe2d1301b80e5250f95b68e1054c308fd4099321c5f0876d4b",
    ("none", None, 0.9, "json", 1000000):
        "b00f58eb40a149e28eec1cb1d756172830195cfb0e4412ccd503775dec54795a",
    ("single", None, 0.9, "json", 1000000):
        "1335fe442bd1b5fb6b1c4caf366ff734ec73ba41a11c5e102030c13417ded0c2",
    ("double", None, 0.9, "json", 1000000):
        "539740b72bd57498ca0d777f7e2016969c45954cfa69fa239a704ac9156dca3d",
}


def _argv(case, out):
    attack, eve_bases, efficiency, fmt, rounds = case
    argv = ["--rounds", str(rounds), "--seed", "1", "--efficiency", str(efficiency),
            "--attack", attack, "--format", fmt, "--check", "--deterministic-output"]
    if eve_bases is not None:
        argv += ["--eve-bases", eve_bases]
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_report_bytes(case, tmp_path):
    out = tmp_path / "report"
    assert main(_argv(case, out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]


# Runs each argv list given as JSON, whose last item is the report's path,
# and prints the reports' SHA-256 digests.
_CHILD = """
import hashlib, json, sys
from hyperqkd.cli import main
digests = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
    with open(argv[-1], "rb") as f:
        digests.append(hashlib.sha256(f.read()).hexdigest())
print(json.dumps(digests))
"""


def test_report_bytes_with_one_blas_thread(tmp_path):
    # The same reports from a process whose BLAS and OpenMP run one thread,
    # as on a one-core host. The thread count is read when numpy loads, so
    # the cases run in a fresh interpreter.
    src = os.path.dirname(os.path.dirname(hyperqkd.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = [_argv(case, tmp_path / f"report{i}") for i, case in enumerate(DIGESTS)]
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert dict(zip(DIGESTS, json.loads(done.stdout))) == DIGESTS
