"""Report bytes pinned by their SHA-256.

The digests below were taken from the ``--deterministic-output --check``
reports of the program as it was just before key extraction and Eve's
estimators became row-table gathers, generated on that earlier commit so
that the rewrite had to reproduce them. Ten of them were regenerated when
``eve_information_se`` moved from a floating-point dot product, whose sum
order depends on the BLAS thread count, to exact integer counts; those
reports changed only in the last digit of that field. All 30 were
regenerated for report schema "2", which drops two fields that held no
information, the config echo of a flag that changed no result and
``stats.same_basis_compared``: parsed, each new report equals the one
pinned before, with ``schema_version`` changed and those two fields (in
CSV, their columns) removed. Any change to a report's bytes, in the
statistics, the keys or the rendering, fails here. The cases are the
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
        "efefddb39b1a679a68c323c1abb0b54da9374d2aabbb17bc138268503f026081",
    ("none", None, 1.0, "csv", 2000):
        "299a7a905f9565a6bc79a51af6b18251ac87b125a981b6fe7f8a163278c1d5e1",
    ("none", None, 0.5, "json", 2000):
        "8a8229735f2cc341f376c8327e354d787875d389bc5c4304e0f403b4a81ae351",
    ("none", None, 0.5, "csv", 2000):
        "9869dece6a8ccd54ca64a6eab5123a94d02c3901c8f07edb78a9c6dd8696e014",
    ("single", "random", 1.0, "json", 2000):
        "a855d2620a8ca03ad302e89612cf45619f4a188b7f40c41f465f460d34c720d7",
    ("single", "random", 1.0, "csv", 2000):
        "680da8dbbf869f6d19bdead3f00005eb294a37440fe0180c607a0d7f6bd78663",
    ("single", "random", 0.5, "json", 2000):
        "268ea17b7c135bb0d452d1675a1ac0436208b80aacf7bbc28c10147561e94b28",
    ("single", "random", 0.5, "csv", 2000):
        "9c6b82df651200f429300e7d771578875ea8cf30e46f7c127e08807fca4d04d2",
    ("single", "same", 1.0, "json", 2000):
        "b4fce8c141ba5db587aff4d96af7f6da563a63903b1b7916d52e1508878c585b",
    ("single", "same", 1.0, "csv", 2000):
        "e9d49095390d349c2b9c97c747677573161a84a7631f86df4ec8cf90f39d94d6",
    ("single", "same", 0.5, "json", 2000):
        "6db0b286f6e568ffa11cedc8fc01e5e1d3269e0c3c818b45de23c85563f38a1f",
    ("single", "same", 0.5, "csv", 2000):
        "0207d6fa655cad42bb4835d10bb9f7ac664514e1a700ebe45fdfd721bb06c3ce",
    ("double", "random", 1.0, "json", 2000):
        "cacee5affe2718545b13d03474c62ddb9051092ee602e0237753f544c303c738",
    ("double", "random", 1.0, "csv", 2000):
        "d498aa21c7c78a101c3be9d692cfd85265ae524afd7b084c0d6725a25848d4fa",
    ("double", "random", 0.5, "json", 2000):
        "59e6a9023e2eeab6fdab4258bc33d5937b03e09a9fc0a27e1fdbec1cee5e0b6e",
    ("double", "random", 0.5, "csv", 2000):
        "d65b7fb121738051f215c475a4d8f5616efe10d64f7ed6712ce3209535495f85",
    ("double", "same", 1.0, "json", 2000):
        "0ac339afc684d5d4d86645379d968c51206f99b7e99c33aba58f7911e8c2e929",
    ("double", "same", 1.0, "csv", 2000):
        "76f7058a30f9fd76081e109d75a6b07b2a0f11ea879b08d69704e5463ce7b528",
    ("double", "same", 0.5, "json", 2000):
        "7f3022d29b5df32d5e680830043603ec6a009e607f982ce3e0e29cc5d033ccb9",
    ("double", "same", 0.5, "csv", 2000):
        "3c0259e06929c82737dbcde81c170e1211e8997e5ecb70365f39d562267093b4",
    ("double", "different", 1.0, "json", 2000):
        "761ebf8630dc8fa2bee25615b4043c2153ee57ced21abae17eba0182ff9cb48b",
    ("double", "different", 1.0, "csv", 2000):
        "c0a317f95fa49b594be8cced9549c6cace1dd9394cb79e078eca7e2e628943f6",
    ("double", "different", 0.5, "json", 2000):
        "4e80853197ab739151a42c5a8b534adacff05fce12c311d276a253064548d53b",
    ("double", "different", 0.5, "csv", 2000):
        "901e5e97dd6071ab49a31c549365eb79e3a11dca7f0b4354fa45ac5e58775912",
    ("none", None, 0.9, "json", 70000):
        "3e9815c779b30537f160721104b4637cdcf29987fa78eb9697ce129649dd6b92",
    ("single", None, 0.9, "json", 70000):
        "c9c5f1aa053854836fc55177b46d771b09c4a081ba2e9c02e1c92fd5f4f56003",
    ("double", None, 0.9, "json", 70000):
        "4a1583282fe60b7ebb2f55c995d2c24730c89cc3216bd2fe83b6d16a3e3b8182",
    ("none", None, 0.9, "json", 1000000):
        "5b9a993e6da306bcfd867031e19d5a44ed0d4d9f82383c8462b181f3f46c210a",
    ("single", None, 0.9, "json", 1000000):
        "bd4441b4343c09aa15ae28b1ce9af296917f7e384910d2606632f4dd48eb6525",
    ("double", None, 0.9, "json", 1000000):
        "d9e07e7b8da66d443db6f9b4b269fe7bf4aa5a4870ba6d418e0dc0a0fe27f460",
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
