"""Report bytes pinned by their SHA-256.

The digests below were taken from the ``--deterministic-output --check``
reports of the program as it was just before key extraction and Eve's
estimators became row-table gathers, generated on that earlier commit so
that the rewrite had to reproduce them. Any change to a report's bytes, in
the statistics, the keys or the rendering, fails here. The cases are the
six scenarios at efficiency 1.0 and 0.5, in JSON and CSV, at 2 000
rounds, and one 70 000-round call per attack kind, which crosses the
engine's 65 536-round block. All use seed 1.
"""

import hashlib

import pytest

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
        "f20cd01ef9a0d507cff723ef8a995aca71b8cb1bdd38b0cef2498abfee4dc964",
    ("single", "same", 1.0, "csv", 2000):
        "ef2069033b1fcd004d24bf715ef145427da8481694b6ad27bbe73a0afda77bea",
    ("single", "same", 0.5, "json", 2000):
        "4d833dc417ff47154a39c11471074ee3e6da128ac4fa839e643eaba3533b5c78",
    ("single", "same", 0.5, "csv", 2000):
        "4dfea6595fad34bf2bb6edf9a8e4c9012e197bacd9a4f0712016223b5da6ee4a",
    ("double", "random", 1.0, "json", 2000):
        "03edfdc852a87c7d84b373bd693613dc0281c7a32d2ace31f45c065557f388de",
    ("double", "random", 1.0, "csv", 2000):
        "7eff09901a25649bfcecc7142dde65d38197aa11bcb99850442a6d2aab46b8c1",
    ("double", "random", 0.5, "json", 2000):
        "f2a5ca60170122c291bd0da91bade504ac184204b1f32cbf1906247084f0d41f",
    ("double", "random", 0.5, "csv", 2000):
        "4cd495ed4d8eb33e6f4d8035fb10054061a5e14ec02157f7622d0dceb0e3fbb3",
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
        "80cf0c02603e710f43ce09c6c85f674fc89ec4a7f31db10c9876d8fcbbfd1136",
    ("double", None, 0.9, "json", 70000):
        "774519d2115a1f2237ef105e7abb0fb2035cc09d7c2582b0e704a310fe140654",
}


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_report_bytes(case, tmp_path):
    attack, eve_bases, efficiency, fmt, rounds = case
    out = tmp_path / "report"
    argv = ["--rounds", str(rounds), "--seed", "1", "--efficiency", str(efficiency),
            "--attack", attack, "--format", fmt, "--check", "--deterministic-output",
            "--out", str(out)]
    if eve_bases is not None:
        argv += ["--eve-bases", eve_bases]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]
