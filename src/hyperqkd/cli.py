"""Command-line entry point: run a batch, emit a report, optionally self-check.

Report schema (version "2"): a JSON object with ``schema_version``,
``generated_at`` (omitted under --deterministic-output), ``config`` (echo
of the parsed flags), ``stats`` (every BatchStats field, standard errors
included), ``keys`` (lengths and SHA-256 digests of both key strings) and,
when --check is given, ``checks`` (one verdict per expected value for the
configured scenario: within CHECK_Z standard errors, or exact; null when
the run has no data to estimate it from) and ``checks_passed`` (false when
some verdict is false). The CSV
format is a flat single-row projection in the fixed column order of
CSV_FIELDS, derived from the dataclass fields: the config echo, the stats
fields (``verification`` and ``detection`` flattened under the ``verify_``
and ``detection_`` prefixes), the key digests and ``checks_passed``; the
two detection mismatch counts appear in JSON only. Empty cells stand for
null. Every config rule lives in ``SimConfig.validate``; a violated rule
is a usage error naming the flag.

Exit status: 0 success, 1 at least one --check verdict is false, 2 usage
error, 3 output could not be written, 4 the batch did not fit in memory
(no report is written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .adversary import AttackConfig, AttackKind, EveBasisStrategy
from .errors import ConfigurationError
from .montecarlo import (
    EKERT_BITS_PER_PAIR,
    BatchResult,
    BatchStats,
    DetectionStats,
    SimConfig,
    run_batch,
)
from .protocol import VerificationReport

SCHEMA_VERSION = "2"

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

@dataclass(frozen=True)
class ReportOptions:
    """Output-side options parsed from the command line."""

    format: str = "json"
    out: Optional[str] = None
    check: bool = False
    deterministic_output: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperqkd",
        description=(
            "Simulate the deterministic entangled-pair key distribution "
            "protocol and report its Monte Carlo estimators."
        ),
    )
    parser.add_argument("--rounds", type=int, default=100_000,
                        help="number of protocol rounds (default: 100000)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed; all randomness derives from it (default: 42)")
    parser.add_argument("--efficiency", type=float, default=1.0,
                        help="per-photon detection probability in (0, 1] (default: 1.0)")
    parser.add_argument("--attack", choices=["none", *(kind.value for kind in AttackKind)],
                        default="none",
                        help="eavesdropping model (default: none)")
    parser.add_argument("--eve-bases", choices=[s.value for s in EveBasisStrategy],
                        default=None,
                        help="Eve's basis strategy; requires --attack (default: random)")
    parser.add_argument("--verify-fraction", type=float, default=0.1,
                        help="fraction of same-basis rounds compared in public "
                             "and removed from the key (default: 0.1)")
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


# Built once: parsing does not change the parser, and building it costs a
# tenth of a short run.
_PARSER = build_parser()


def parse_config(argv: Sequence[str]) -> tuple[SimConfig, ReportOptions]:
    """Parse CLI arguments into a simulation config and output options.

    Raises SystemExit(2) on usage errors, naming the offending flag.
    """
    parser = _PARSER
    args = parser.parse_args(argv)

    attack = None
    if args.attack == "none":
        if args.eve_bases is not None:
            parser.error("--eve-bases requires --attack single or double")
    else:
        try:
            attack = AttackConfig(
                kind=AttackKind(args.attack),
                strategy=EveBasisStrategy(args.eve_bases or "random"),
            )
        except ConfigurationError as exc:
            parser.error(f"argument --eve-bases: {exc}")

    config = SimConfig(
        rounds=args.rounds,
        seed=args.seed,
        efficiency=args.efficiency,
        attack=attack,
        verify_fraction=args.verify_fraction,
    )
    try:
        config.validate()
    except ConfigurationError as exc:
        flags = ", ".join("--" + name.replace("_", "-") for name in exc.fields)
        parser.error(f"argument {flags}: {exc}")
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
    }


# Stats columns left out of the CSV: ``rounds`` is already in the config
# echo, and the detection mismatch counts are in JSON only.
_CSV_OMITTED = {"rounds", "detection_same_bases_mismatches", "detection_diff_bases_mismatches"}
# Nested stats reports, flattened into the CSV under a column prefix.
_CSV_NESTED = {"verification": ("verify_", VerificationReport),
               "detection": ("detection_", DetectionStats)}


def _stats_columns():
    """(CSV column, path in the stats dict) for every stats field, in
    declaration order."""
    for outer in fields(BatchStats):
        if outer.name in _CSV_NESTED:
            prefix, report = _CSV_NESTED[outer.name]
            for inner in fields(report):
                yield prefix + inner.name, f"{outer.name}.{inner.name}"
        else:
            yield outer.name, outer.name


# CSV column -> path of its value in the report document, in column order.
_CSV_PATHS = {
    "schema_version": "schema_version",
    **{key: f"config.{key}" for key in _config_echo(SimConfig(rounds=1))},
    **{column: f"stats.{path}" for column, path in _stats_columns()
       if column not in _CSV_OMITTED},
    "alice_key_sha256": "keys.alice_sha256",
    "bob_key_sha256": "keys.bob_sha256",
    "keys_equal": "keys.equal",
    "checks_passed": "checks_passed",
}
#: Flat column order of the CSV projection.
CSV_FIELDS = list(_CSV_PATHS)


def _lookup_metric(doc: dict, path: str):
    """The value at a dotted ``path`` of ``doc``; None where it is absent
    or passes through a null."""
    value = doc
    for part in path.split("."):
        if value is None:
            return None
        value = value.get(part)
    return value


def evaluate_checks(stats: dict, config: SimConfig) -> list[dict]:
    """Verdicts comparing this run's estimators, ``stats`` (its
    ``BatchStats.to_dict()``), with the scenario's expected values.

    A verdict's ``passed`` is None when its estimator is undefined for lack
    of data (``actual`` or the band's SE is None): a short run that never
    measured a quantity neither confirms nor refutes its expected value.
    """
    if config.attack is None:
        scenario = ("none", None)
    else:
        scenario = (config.attack.kind.value, config.attack.strategy.value)
    checks = []
    for metric, expected, null_se in _CHECKS_BY_SCENARIO[scenario]:
        actual = _lookup_metric(stats, metric)
        if null_se is None:
            tolerance = 0.0
        else:
            se = null_se(stats)
            tolerance = None if se is None else CHECK_Z * se
        if actual is None or tolerance is None:
            passed = None
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
    stats: dict,
) -> dict:
    """Assemble the report document (a JSON-ready dict); ``stats`` is
    ``result.stats.to_dict()``."""
    alice, bob = result.alice_key, result.bob_key
    alice_sha256 = alice.sha256()
    # A batch whose keys agree gives both parties one key object.
    equal = bob is alice or bob == alice
    bob_sha256 = alice_sha256 if equal else bob.sha256()
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if not options.deterministic_output:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc["config"] = _config_echo(config)
    doc["stats"] = stats
    doc["keys"] = {
        "length": len(alice),
        "alice_sha256": alice_sha256,
        "bob_sha256": bob_sha256,
        "equal": equal,
    }
    if checks is not None:
        doc["checks"] = checks
        doc["checks_passed"] = all(c["passed"] is not False for c in checks)
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerow([_csv_cell(_lookup_metric(doc, path)) for path in _CSV_PATHS.values()])
    return buffer.getvalue()


def emit_report(
    result: BatchResult,
    config: SimConfig,
    options: ReportOptions,
    checks: Optional[list[dict]],
    stats: dict,
) -> str:
    """Render the report and write it to --out or stdout; returns the text.
    ``stats`` is as for :func:`build_report`."""
    doc = build_report(result, config, options, checks, stats)
    text = render_json(doc) if options.format == "json" else render_csv(doc)
    if options.out is None:
        sys.stdout.write(text)
    else:
        _write_file(options.out, text)
    return text


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file beside the target, which then
    replaces it, so a failed write leaves an earlier report as it was and
    removes the temporary file. The temporary file is new, under a random
    name, and created only if nothing (not even a symlink) holds that
    name, so no other writer's file and no link's target is written; its
    mode follows the umask, as the report's would. Through a symlink, the
    file it names is replaced, not the link; a dangling link's target is
    created. A path that exists and is not a regular file
    (``/dev/stdout``, a FIFO, or a link to one) is written in place: a
    device node must never be replaced.

    A regular file takes six system calls: ``lstat`` of the path,
    ``getrandom`` for the temporary's name, ``open``, ``write`` (again
    after a short write), ``close`` and ``rename``. Only a symlink costs
    more: a ``stat``, and an ``lstat`` per component of its path.
    """
    link = False
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            link = True
            mode = os.stat(path).st_mode
    except FileNotFoundError:
        # A new file, or a dangling link's new target.
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    if link:
        path = os.path.realpath(path)
    # On POSIX these are the bytes a text-mode handle would write.
    data = memoryview(text.encode("utf-8"))
    while True:
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config, options = parse_config(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        result = run_batch(config)
    except MemoryError:
        print(f"error: {config.rounds} rounds do not fit in memory", file=sys.stderr)
        return 4
    # One stats dict serves the checks and the report.
    stats = result.stats.to_dict()
    checks = evaluate_checks(stats, config) if options.check else None

    try:
        emit_report(result, config, options, checks, stats)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3

    if checks is not None:
        failed = [c for c in checks if c["passed"] is False]
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
