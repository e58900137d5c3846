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
per batch instead of a stream seeded per round. The 18 reports at
efficiency 0.5 and 0.9 were regenerated again, checked the same way, for
version 0.5.0, in which the decision word's low 52 bits decide both
detections; the 12 at efficiency 1 did not change. Any change to a report's
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
        "5709cb4d540c4586f1e49519e85894d6937a61cb5e1ff6a4cac955a02c5a556a",
    ("none", None, 0.5, "csv", 2000):
        "9ee82cc6bdac808f7dc1e347a97668e2bdd6b40e18eddd937b0000eb2c4052eb",
    ("single", "random", 1.0, "json", 2000):
        "097bd20ea9364132f641a2766f8786416899c4ac673942faf6c4ada090c5cb3a",
    ("single", "random", 1.0, "csv", 2000):
        "9a9061ccf8f1c61dcf4aa5f35ea6511a8e1555d7fa9868f8f1b4dccd23d2970a",
    ("single", "random", 0.5, "json", 2000):
        "ac8238d1b9b1da5f9f9ead2e1ec95b001bc4a22c6f48be329a7d7e30b770c58a",
    ("single", "random", 0.5, "csv", 2000):
        "68f816acbcce71f8e2a2c923868cb625384bcdecb6837d3f3128fba47c204924",
    ("single", "same", 1.0, "json", 2000):
        "4ad247489d901cd4f77a7789e35ffbc8ef137633468686076f9585a123800eb0",
    ("single", "same", 1.0, "csv", 2000):
        "1764082fda267025b6026ab3db01ed44c3424ffeb9ee6bf0bda0e81f7d2411e9",
    ("single", "same", 0.5, "json", 2000):
        "60424101e1fe570ecf58a5c7c630c54f609d9522b8724c6a1fc040fe0cb380a3",
    ("single", "same", 0.5, "csv", 2000):
        "6adacfa5bedf3750436bba4eb49bf06d8df583277da90ff0109b1ba84d0094f6",
    ("double", "random", 1.0, "json", 2000):
        "0c2bdb86cf9ea2721997b560f4dcd7e992d33ea08265cf69ca1de9d7d1ad8e4f",
    ("double", "random", 1.0, "csv", 2000):
        "b7d096b936d572d50a5c5241df6ac2716f5e67fb79da8222969461506bb5d1c5",
    ("double", "random", 0.5, "json", 2000):
        "e93da8ff6fd0096b7de3702946258a20edffff6db8c421e605e6e46671796960",
    ("double", "random", 0.5, "csv", 2000):
        "92ffbf3de81a42604218b3bd63a78d12d1a8d8ace269ab6718d49533fa179eb3",
    ("double", "same", 1.0, "json", 2000):
        "4e4d9ca075b3d269f2a86ada1a46bf72e1e8e4670d423ced7596a752393605df",
    ("double", "same", 1.0, "csv", 2000):
        "fedf1f76468df95e366a19d2050cde482412ff91ff1facb13d68b159f959cd57",
    ("double", "same", 0.5, "json", 2000):
        "d8cf3862792b29213f3c8f1878226e730d8cfa4493f78ae1575f35e8835e0c26",
    ("double", "same", 0.5, "csv", 2000):
        "91ab84f13372bcddd55830c41b1e222854405177fda5eb83540ebe5a7936d2d5",
    ("double", "different", 1.0, "json", 2000):
        "552a5faaa9f09202d7eefcf0498627d983ae421d567a352df91b28dc8d92fd6e",
    ("double", "different", 1.0, "csv", 2000):
        "d8751b3465cc5c71d348ead5379259bf34f0d7f56878adcf5995178f2bfa4c64",
    ("double", "different", 0.5, "json", 2000):
        "fc5ab016f949922bff7a77c9b7c0c7aa808c4fd07d95b67d34dfc6a754ca12dd",
    ("double", "different", 0.5, "csv", 2000):
        "f653db6ea831a3fd016888e99d33155b498485b04827774f884fd3ce6d5e6176",
    ("none", None, 0.9, "json", 70000):
        "ca201d8eef6e42ef8e800b1662c64ff67834829f2e175862346997261624ec1f",
    ("single", None, 0.9, "json", 70000):
        "631f26b8d5647ef84cffdff9db22e71a8a89648ba9070f4404334193ddba2a15",
    ("double", None, 0.9, "json", 70000):
        "89ef409050ee80bedaf0b70ab55286e802abf98e8624dfd41a98c3626514c842",
    ("none", None, 0.9, "json", 1000000):
        "3efaa59f443aada145eefbd0015b441839635b6ebf0b3875d9d195047f470bfb",
    ("single", None, 0.9, "json", 1000000):
        "b16454694cd80f9aad62523c20da8ddd291be64a35abed84c6f9ae24aecaa57f",
    ("double", None, 0.9, "json", 1000000):
        "12173273d8bae8d81088c50de45f4ff2ca7894e34475d60a5934f619b0004455",
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
