"""Command-line entry point: run a batch, emit a report, optionally self-check.

Report schema (version "1"): a JSON object with ``schema_version``,
``generated_at`` (omitted under --deterministic-output), ``config`` (echo
of the parsed flags), ``stats`` (every BatchStats field, standard errors
included), ``keys`` (lengths and SHA-256 digests of both key strings) and,
when --check is given, ``checks`` (one verdict per expected value for the
configured scenario: within CHECK_Z standard errors, or exact). The CSV
format is a flat single-row projection of the same fields in a fixed
column order; empty cells stand for null.

Exit status: 0 success, 1 at least one --check verdict failed, 2 usage
error, 3 output could not be written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .adversary import AttackConfig, AttackKind, EveBasisStrategy
from .montecarlo import EKERT_BITS_PER_PAIR, BatchResult, SimConfig, run_batch

SCHEMA_VERSION = "1"

_ATTACK_KINDS = {
    "single": AttackKind.SINGLE_INTERCEPT,
    "double": AttackKind.DOUBLE_INTERCEPT,
}
_EVE_STRATEGIES = {
    "random": EveBasisStrategy.RANDOM_PER_ROUND,
    "same": EveBasisStrategy.FIXED_SAME,
    "different": EveBasisStrategy.FIXED_DIFFERENT,
}

#: Width of every statistical --check band, in standard errors. A correct
#: program falls outside 5 SE with probability about 6e-7 per check, while
#: the band still narrows as 1/sqrt(rounds) to catch a real bias.
CHECK_Z = 5.0


def _null_se(p0: float, n: Optional[int]) -> Optional[float]:
    """Binomial SE of a proportion over ``n`` trials, taken at its expected
    value ``p0`` so that an estimate of exactly 0 or 1 cannot shrink it."""
    return math.sqrt(p0 * (1.0 - p0) / n) if n else None


def _bits_per_coincidence_se(stats: dict) -> Optional[float]:
    # bits/coincidence = 1 + (same-basis fraction), which is 1/2.
    return _null_se(0.5, stats["coincidences"])


def _ekert_ratio_se(stats: dict) -> Optional[float]:
    se = _bits_per_coincidence_se(stats)
    return None if se is None else se / EKERT_BITS_PER_PAIR


def _eve_information_se(stats: dict) -> Optional[float]:
    # Eve knows both bits of a same-basis round or neither: each key round r
    # of b_r bits is known with probability 1/2, so the SE is
    # sqrt(1/4 * sum_r b_r**2) / key_length.
    same_rounds = stats["same_basis_count"] - stats["verification"]["compared_rounds"]
    squares = 4 * same_rounds + stats["diff_basis_count"]
    return math.sqrt(0.25 * squares) / stats["key_length"] if stats["key_length"] else None


def _rate_se(p0: float, count_path: str):
    return lambda stats: _null_se(p0, _lookup_metric(stats, count_path))


# Expected value per scenario and estimator, with the function giving the
# estimator's SE under that expectation; the band is CHECK_Z of those. None
# marks an exact check: the estimator must equal the value.
_BITS_PER_COINCIDENCE = ("bits_per_coincidence", 1.5, _bits_per_coincidence_se)
_SINGLE = [
    _BITS_PER_COINCIDENCE,
    ("same_basis_mismatch_rate", 0.25, _rate_se(0.25, "same_basis_count")),
    ("eve_information", 0.5, _eve_information_se),
]
_DOUBLE_EQUAL = (
    "detection.same_bases_rate", 0.25, _rate_se(0.25, "detection.same_bases_compared")
)
_DOUBLE_DIFFERENT = (
    "detection.diff_bases_rate", 0.5, _rate_se(0.5, "detection.diff_bases_compared")
)
_CHECKS_BY_SCENARIO = {
    ("none", None): [
        _BITS_PER_COINCIDENCE,
        ("same_basis_mismatch_rate", 0.0, None),
        ("key_bit_error_rate", 0.0, None),
        ("ekert_ratio", 6.75, _ekert_ratio_se),
    ],
    ("single", "random"): _SINGLE,
    ("single", "same"): _SINGLE,
    ("double", "random"): [_BITS_PER_COINCIDENCE, _DOUBLE_EQUAL, _DOUBLE_DIFFERENT],
    ("double", "same"): [_BITS_PER_COINCIDENCE, _DOUBLE_EQUAL],
    ("double", "different"): [_BITS_PER_COINCIDENCE, _DOUBLE_DIFFERENT],
}

# Flat column order of the CSV projection.
CSV_FIELDS = [
    "schema_version",
    "rounds",
    "seed",
    "efficiency",
    "attack",
    "eve_bases",
    "verify_fraction",
    "workers",
    "coincidences",
    "coincidence_rate",
    "coincidence_rate_se",
    "same_basis_count",
    "diff_basis_count",
    "discarded_count",
    "bits_per_coincidence",
    "bits_per_coincidence_se",
    "ekert_ratio",
    "ekert_ratio_se",
    "same_basis_compared",
    "same_basis_mismatches",
    "same_basis_mismatch_rate",
    "same_basis_mismatch_se",
    "key_length",
    "key_bit_error_rate",
    "key_bit_error_se",
    "verify_compared_rounds",
    "verify_mismatches",
    "verify_mismatch_rate",
    "eve_information",
    "eve_information_se",
    "eve_guess_accuracy",
    "detection_same_bases_compared",
    "detection_same_bases_rate",
    "detection_same_bases_se",
    "detection_diff_bases_compared",
    "detection_diff_bases_rate",
    "detection_diff_bases_se",
    "alice_key_sha256",
    "bob_key_sha256",
    "keys_equal",
    "checks_passed",
]


@dataclass(frozen=True)
class ReportOptions:
    """Output-side options parsed from the command line."""

    format: str = "json"
    out: Optional[str] = None
    check: bool = False
    deterministic_output: bool = False


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


def _seed64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("must be a 64-bit unsigned integer")
    return value


def _efficiency(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def _verify_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperqkd",
        description=(
            "Simulate the deterministic entangled-pair key distribution "
            "protocol and report its Monte Carlo estimators."
        ),
    )
    parser.add_argument("--rounds", type=_positive_int, default=100_000,
                        help="number of protocol rounds (default: 100000)")
    parser.add_argument("--seed", type=_seed64, default=42,
                        help="master seed; all randomness derives from it (default: 42)")
    parser.add_argument("--efficiency", type=_efficiency, default=1.0,
                        help="per-photon detection probability in (0, 1] (default: 1.0)")
    parser.add_argument("--attack", choices=["none", "single", "double"], default="none",
                        help="eavesdropping model (default: none)")
    parser.add_argument("--eve-bases", choices=["random", "same", "different"],
                        default=None,
                        help="Eve's basis strategy; requires --attack (default: random)")
    parser.add_argument("--verify-fraction", type=_verify_fraction, default=0.1,
                        help="fraction of same-basis rounds compared in public "
                             "and removed from the key (default: 0.1)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="accepted and echoed in the report; the batch runs in "
                             "this process and results never depend on it (default: 1)")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report format (default: json)")
    parser.add_argument("--check", action="store_true",
                        help="compare estimators against the expected values for "
                             "this scenario; exit 1 on any failure")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--deterministic-output", action="store_true",
                        help="omit the timestamp so identical runs emit identical bytes")
    return parser


def parse_config(argv: Sequence[str]) -> tuple[SimConfig, ReportOptions]:
    """Parse CLI arguments into a simulation config and output options.

    Raises SystemExit(2) on usage errors, naming the offending flag.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.attack == "none":
        if args.eve_bases is not None:
            parser.error("--eve-bases requires --attack single or double")
        attack = None
    else:
        eve_bases = args.eve_bases or "random"
        if args.attack == "single" and eve_bases == "different":
            parser.error("--eve-bases different is not valid with --attack single")
        attack = AttackConfig(
            kind=_ATTACK_KINDS[args.attack], strategy=_EVE_STRATEGIES[eve_bases]
        )

    config = SimConfig(
        rounds=args.rounds,
        seed=args.seed,
        efficiency=args.efficiency,
        attack=attack,
        verify_fraction=args.verify_fraction,
        workers=args.workers,
    )
    options = ReportOptions(
        format=args.format,
        out=args.out,
        check=args.check,
        deterministic_output=args.deterministic_output,
    )
    return config, options


def _config_echo(config: SimConfig) -> dict:
    if config.attack is None:
        attack, eve_bases = "none", None
    else:
        attack = config.attack.kind.value
        eve_bases = config.attack.strategy.value
    return {
        "rounds": config.rounds,
        "seed": config.seed,
        "efficiency": config.efficiency,
        "attack": attack,
        "eve_bases": eve_bases,
        "verify_fraction": config.verify_fraction,
        "workers": config.workers,
    }


def _lookup_metric(stats_dict: dict, path: str):
    value = stats_dict
    for part in path.split("."):
        if value is None:
            return None
        value = value.get(part)
    return value


def evaluate_checks(result: BatchResult, config: SimConfig) -> list[dict]:
    """Verdicts comparing this run's estimators with the scenario's expected values."""
    if config.attack is None:
        scenario = ("none", None)
    else:
        scenario = (config.attack.kind.value, config.attack.strategy.value)
    stats_dict = result.stats.to_dict()
    checks = []
    for metric, expected, null_se in _CHECKS_BY_SCENARIO[scenario]:
        actual = _lookup_metric(stats_dict, metric)
        if null_se is None:
            tolerance = 0.0
        else:
            se = null_se(stats_dict)
            tolerance = None if se is None else CHECK_Z * se
        if actual is None or tolerance is None:
            passed = False
        else:
            passed = abs(actual - expected) <= tolerance
        checks.append(
            {
                "metric": metric,
                "expected": expected,
                "tolerance": tolerance,
                "actual": actual,
                "passed": passed,
            }
        )
    return checks


def build_report(
    result: BatchResult,
    config: SimConfig,
    options: ReportOptions,
    checks: Optional[list[dict]],
) -> dict:
    """Assemble the report document (a JSON-ready dict)."""
    alice = result.alice_key.as_string()
    bob = result.bob_key.as_string()
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if not options.deterministic_output:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc["config"] = _config_echo(config)
    doc["stats"] = result.stats.to_dict()
    doc["keys"] = {
        "length": len(result.alice_key.bits),
        "alice_sha256": hashlib.sha256(alice.encode()).hexdigest(),
        "bob_sha256": hashlib.sha256(bob.encode()).hexdigest(),
        "equal": alice == bob,
    }
    if checks is not None:
        doc["checks"] = checks
        doc["checks_passed"] = all(c["passed"] for c in checks)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def render_csv(doc: dict) -> str:
    """Flat single-row projection of the report in CSV_FIELDS order."""
    stats = doc["stats"]
    config = doc["config"]
    verification = stats["verification"]
    detection = stats["detection"] or {}
    row = {
        "schema_version": doc["schema_version"],
        **{k: config[k] for k in ("rounds", "seed", "efficiency", "attack",
                                  "eve_bases", "verify_fraction", "workers")},
        **{
            k: stats[k]
            for k in (
                "coincidences", "coincidence_rate", "coincidence_rate_se",
                "same_basis_count", "diff_basis_count", "discarded_count",
                "bits_per_coincidence", "bits_per_coincidence_se",
                "ekert_ratio", "ekert_ratio_se",
                "same_basis_compared", "same_basis_mismatches",
                "same_basis_mismatch_rate", "same_basis_mismatch_se",
                "key_length", "key_bit_error_rate", "key_bit_error_se",
                "eve_information", "eve_information_se", "eve_guess_accuracy",
            )
        },
        "verify_compared_rounds": verification["compared_rounds"],
        "verify_mismatches": verification["mismatches"],
        "verify_mismatch_rate": verification["mismatch_rate"],
        "detection_same_bases_compared": detection.get("same_bases_compared"),
        "detection_same_bases_rate": detection.get("same_bases_rate"),
        "detection_same_bases_se": detection.get("same_bases_se"),
        "detection_diff_bases_compared": detection.get("diff_bases_compared"),
        "detection_diff_bases_rate": detection.get("diff_bases_rate"),
        "detection_diff_bases_se": detection.get("diff_bases_se"),
        "alice_key_sha256": doc["keys"]["alice_sha256"],
        "bob_key_sha256": doc["keys"]["bob_sha256"],
        "keys_equal": doc["keys"]["equal"],
        "checks_passed": doc.get("checks_passed"),
    }
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerow([_csv_cell(row[field]) for field in CSV_FIELDS])
    return buffer.getvalue()


def emit_report(
    result: BatchResult,
    config: SimConfig,
    options: ReportOptions,
    checks: Optional[list[dict]],
) -> str:
    """Render the report and write it to --out or stdout; returns the text."""
    doc = build_report(result, config, options, checks)
    text = render_json(doc) if options.format == "json" else render_csv(doc)
    if options.out is None:
        sys.stdout.write(text)
    else:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config, options = parse_config(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    result = run_batch(config)
    checks = evaluate_checks(result, config) if options.check else None

    try:
        emit_report(result, config, options, checks)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3

    if checks is not None:
        failed = [c for c in checks if not c["passed"]]
        for check in failed:
            print(
                f"check failed: {check['metric']} = {check['actual']!r}, "
                f"expected {check['expected']} +- {check['tolerance']}",
                file=sys.stderr,
            )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
