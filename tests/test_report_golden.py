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
round of each 10**6-round batch gave the scalar round's record. All 30
were regenerated again, checked the same way, for version 0.4.0, in
which each round owns three consecutive outputs of one SplitMix64 stream
per batch instead of a stream seeded per round. Any change to a report's
bytes, in the statistics, the keys or the rendering, fails here. The
cases are the six scenarios at efficiency 1.0 and 0.5, in JSON and CSV,
at 2 000 rounds, and one 70 000-round and one 10**6-round call per
attack kind at efficiency 0.9. The 70 000-round calls cross four
16 384-round blocks, and each 10**6-round call crosses 62 of them and
makes about 40 000 verification picks. All use seed 1.
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
        "5ff9ffafb7277b2caa9958d7e3f7d4e56e1d059d9ee402b69d86b95af78a785f",
    ("none", None, 1.0, "csv", 2000):
        "f4379872b6cf58ef1d0c6bd4d2cc492075379bdcbdb958bb1767096510e28e19",
    ("none", None, 0.5, "json", 2000):
        "74acff6fc6aa29d48d8ab1e868fa3d9ac56f524cc0b58dcb4bc6a9b14711f6b8",
    ("none", None, 0.5, "csv", 2000):
        "c4d3849865f4ebd75b7f7171fe80db8f17893fff4f8ada2cbdfdeb30d711fea2",
    ("single", "random", 1.0, "json", 2000):
        "097bd20ea9364132f641a2766f8786416899c4ac673942faf6c4ada090c5cb3a",
    ("single", "random", 1.0, "csv", 2000):
        "9a9061ccf8f1c61dcf4aa5f35ea6511a8e1555d7fa9868f8f1b4dccd23d2970a",
    ("single", "random", 0.5, "json", 2000):
        "f8c2d9f3a8d3ef93df0a6d94e8297421ee08ef87da23933fad6c90ae0fe1dc90",
    ("single", "random", 0.5, "csv", 2000):
        "8167e49b44de8d74d62ccf93b38f1edc4c455d846426c00ee3c829254e0fe346",
    ("single", "same", 1.0, "json", 2000):
        "4ad247489d901cd4f77a7789e35ffbc8ef137633468686076f9585a123800eb0",
    ("single", "same", 1.0, "csv", 2000):
        "1764082fda267025b6026ab3db01ed44c3424ffeb9ee6bf0bda0e81f7d2411e9",
    ("single", "same", 0.5, "json", 2000):
        "77a1fe281c33ba52cacb61cc21110619afd13a6773548f35ffaabbe8a81046d7",
    ("single", "same", 0.5, "csv", 2000):
        "5fb845c6a7cd9c1a0f14c0a700ef9f085b2f0323a26fdf3c4fddf521cb9f0b5c",
    ("double", "random", 1.0, "json", 2000):
        "0c2bdb86cf9ea2721997b560f4dcd7e992d33ea08265cf69ca1de9d7d1ad8e4f",
    ("double", "random", 1.0, "csv", 2000):
        "b7d096b936d572d50a5c5241df6ac2716f5e67fb79da8222969461506bb5d1c5",
    ("double", "random", 0.5, "json", 2000):
        "55ff121e47e4e3e309d2d37808481952de115a871169a137c37349d5af441a54",
    ("double", "random", 0.5, "csv", 2000):
        "f2d0887b82fcc1e1dc89781d413b506ce35e8bf8260ef797fc724d9a1f699c62",
    ("double", "same", 1.0, "json", 2000):
        "4e4d9ca075b3d269f2a86ada1a46bf72e1e8e4670d423ced7596a752393605df",
    ("double", "same", 1.0, "csv", 2000):
        "fedf1f76468df95e366a19d2050cde482412ff91ff1facb13d68b159f959cd57",
    ("double", "same", 0.5, "json", 2000):
        "cd9c150087c05c071823b44f49dc08aa2854048c7b8ebe414d9c44709f7d77e9",
    ("double", "same", 0.5, "csv", 2000):
        "abf7b83d29131ee5e733c21c1abcf8cd9b4ecc695b271c685a2ff5acac71489d",
    ("double", "different", 1.0, "json", 2000):
        "552a5faaa9f09202d7eefcf0498627d983ae421d567a352df91b28dc8d92fd6e",
    ("double", "different", 1.0, "csv", 2000):
        "d8751b3465cc5c71d348ead5379259bf34f0d7f56878adcf5995178f2bfa4c64",
    ("double", "different", 0.5, "json", 2000):
        "07206fba5d9ab735688dc8498fc876f1ee0cf7899c9a1db7cb17ef774080c441",
    ("double", "different", 0.5, "csv", 2000):
        "c5423e2210e710ff9bfd4d915990214b6dfc7ea47d7b92003beab58769a6a37a",
    ("none", None, 0.9, "json", 70000):
        "ab00c30aae6fc9d2040e8bbd9f88a6df157eaa0a869d14dff83660e21d7da259",
    ("single", None, 0.9, "json", 70000):
        "18c6a6ce4b5e1e20273bbbcf3f73e78ecf93303c97b701b510a6593f61a81a2e",
    ("double", None, 0.9, "json", 70000):
        "bfb26d30bb99e6eec165a808cfaeedb09bd3704b65943bca5d4d732f3cbfcc96",
    ("none", None, 0.9, "json", 1000000):
        "915fbcfa5a19df85ef64ecdf91ece4e9ebfd3f16e97c7ced52799e5789d107fb",
    ("single", None, 0.9, "json", 1000000):
        "2bdb962729dfff4f0f2526271292b213a6e624484ca9b693c9251b635e12604f",
    ("double", None, 0.9, "json", 1000000):
        "c2b7a5c183694d5d78ca10ebe5007dcccb3e1f2c8deaab13d9e4d1723e46480f",
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
