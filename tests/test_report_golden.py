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
CSV, their columns) removed. All 30 were regenerated again for version
0.3.0, whose stream layout reads every fair decision of a round off one
decision word: before the digests were taken, each 2 000- and
70 000-round batch was replayed through the scalar ``run_round``,
``sift``, ``verify_sample`` and the per-record reference of
``reference.py`` and gave the same records, keys and stats, and every
round of each 10**6-round batch gave the scalar round's record. Any
change to a report's bytes, in the statistics, the keys or the
rendering, fails here. The cases are the six scenarios at efficiency 1.0
and 0.5, in JSON and CSV, at 2 000 rounds, and one 70 000-round and one
10**6-round call per attack kind at efficiency 0.9. The 70 000-round
calls cross four 16 384-round blocks, and each 10**6-round call crosses
62 of them and makes about 40 000 verification picks. All use seed 1.
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
        "6ad981f8c1569d141b2afae461e7f807e457bffaa47d2fa4e1a27466709e06e3",
    ("none", None, 1.0, "csv", 2000):
        "e342bf39d4b9020b18d12a89c35b492cde4d1bb1a7ce3187601e8f8ad16ef7c7",
    ("none", None, 0.5, "json", 2000):
        "d2b7df4b51eaa59d9c5432afcba43d8084912a06c312018dcacc373f5d828a27",
    ("none", None, 0.5, "csv", 2000):
        "cb6fcbd8c26c2846d12c9778e2f3ff4579af3909281384131df46afb769c1faa",
    ("single", "random", 1.0, "json", 2000):
        "8db3d96ea6e47942b4ecdc8a0f0177afae961657587f2f0fd05801f221416cb3",
    ("single", "random", 1.0, "csv", 2000):
        "410000ed50ccae4dc9f6228f5ed71bce02175c1a9ce845fb96c8975647eb78af",
    ("single", "random", 0.5, "json", 2000):
        "1d0f1d93eb52be81781bb60624d374a52ff914c4d7f9be1b9a8b84f1ba4943a4",
    ("single", "random", 0.5, "csv", 2000):
        "e19538a6ff18271bac8cb2da2f4d36fe985e20c72e855f65cbc81314516a4770",
    ("single", "same", 1.0, "json", 2000):
        "114a798e5ff67979dbcb420e579045f200e4dd7bf7287af2316054a4a2fd71dd",
    ("single", "same", 1.0, "csv", 2000):
        "041bb7941297e1c942889439b4f819459e6ba061d0c223410c8dff4408be6a82",
    ("single", "same", 0.5, "json", 2000):
        "fd76e2de02438626d7ed570985bb7b4904f07e2a3d20f6fd7b3894da9bc6fb53",
    ("single", "same", 0.5, "csv", 2000):
        "36647013ed00cb9b6ba8fe1c1345ba2d7684705b3074f1c04cf639b79275586f",
    ("double", "random", 1.0, "json", 2000):
        "6c878e4e71c7313439961a2edefcf7a4702112f29fd131335d19b3ce223a274f",
    ("double", "random", 1.0, "csv", 2000):
        "8bf85bd3013a6296a36d4f3a4ab229e945ee2b7fed59698677e8902e7c12f331",
    ("double", "random", 0.5, "json", 2000):
        "bbc43851bec0a16846b46151e23d27f944ec30e3955251ac55c605b77b563e0a",
    ("double", "random", 0.5, "csv", 2000):
        "25d9fa5475276fd22f28a4ec5dbd2f241d95fb94652c1288a30389401b56d80e",
    ("double", "same", 1.0, "json", 2000):
        "0e64f510ba36085f29cf9c4b42b83ed0f48591e0ab348d8a8875252aab7b79d1",
    ("double", "same", 1.0, "csv", 2000):
        "30a62301c8722900b0889778b079ba6c6c5c38e0c07916e7cd7294c0e2226239",
    ("double", "same", 0.5, "json", 2000):
        "7be20e83194304e94b16d3046f2c9095996e0fcd10176e2f5b9ae0a3a156df87",
    ("double", "same", 0.5, "csv", 2000):
        "af2068d5a8094c18c1bce38e52d04466d14926d693dac42d299241b8287a1202",
    ("double", "different", 1.0, "json", 2000):
        "f787c16d24eca34b50153defba866a77cd60281ab6ad5f71342d9c13bd9edb31",
    ("double", "different", 1.0, "csv", 2000):
        "db14f5d736dd3dafc759505943adcf73dee3de31162da2f2245f1c3c79666cb4",
    ("double", "different", 0.5, "json", 2000):
        "f7439c9c8f1f1722edead281f5c4ac369f4817545d93440e98d05983bd64f546",
    ("double", "different", 0.5, "csv", 2000):
        "6c0562f66fe5e8b9d2468c46eb6838efabac5a529ae7033033dbe91e656e82f0",
    ("none", None, 0.9, "json", 70000):
        "003397c52408e1fdad89f8a897d1318661e9d7bf29b0bbe6d472e50ad8331a60",
    ("single", None, 0.9, "json", 70000):
        "d5e0da94e8afecec2b3fd6bc8490acea2497636c03c035f8c7e9241875585479",
    ("double", None, 0.9, "json", 70000):
        "3625c6c86725ca0ffcb7453babced64d90b864de934d043354be7788045fa535",
    ("none", None, 0.9, "json", 1000000):
        "ead4975afa28b7a6d9156fd14d0fcb53d5baf90922636e38f9abbc3e85e11740",
    ("single", None, 0.9, "json", 1000000):
        "ad7a228d5f723dc32dce8f381770c5bfd2f0fd75cb0e3aa15ba4eb7aeed5c1b8",
    ("double", None, 0.9, "json", 1000000):
        "68a44c3d11242081fc2fae61ee5c561351e5da8c53c08f5b542626b9201dd1c4",
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
