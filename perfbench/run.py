"""Benchmark for the hyperqkd command line, run from the root of a checkout.

    python3 perfbench/run.py --workload ideal-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One operation is one in-process call of ``hyperqkd.cli.main`` with
``--deterministic-output --out <file>``. A run repeats its workload's fixed
list of operations in whole passes until ``--seconds`` have gone by, checks
every report with ``check.py`` and prints one JSON line: end-to-end metrics
(call times scaled by a reference loop, see REFERENCE_S) with ``--trace 0``,
per-layer metrics from ``spans.py`` with ``--trace 1``.
See README.md for the workloads and the metrics.
"""

import time

# Set-up time runs from this line to the end of the warm-up call.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

import check  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("ideal-large", "eve-single-large", "check-sweep")
#: Fresh processes whose set-up time is measured; the run's own is the first.
SETUP_SAMPLES = 7
LARGE_ROUNDS = 100_000
SWEEP_ROUNDS = 2_000
# check-sweep's seeds are fixed, so the calls where --check gives a false
# verdict are the same in every run whatever --seed is.
SWEEP_SEEDS = (1, 2)
SWEEP_EFFICIENCIES = (1.0, 0.5)
SWEEP_SCENARIOS = (
    ("none", None),
    ("single", "random"),
    ("single", "same"),
    ("double", "random"),
    ("double", "same"),
    ("double", "different"),
)
# On a shared 2-vCPU virtual machine the CPU's speed was seen to change by up
# to 2x within seconds (see README.md). Each call's wall time is therefore
# divided by the mean time of a fixed pure-Python reference loop run just
# before and just after it, and multiplied by REFERENCE_S: the call's time on
# a host where that loop takes REFERENCE_S.
REFERENCE_N = 16_000
REFERENCE_S = 0.010


@dataclass(frozen=True)
class Operation:
    rounds: int
    seed: int
    efficiency: float
    attack: str
    eve_bases: Optional[str]
    fmt: str
    check: bool

    def argv(self, out: str) -> list[str]:
        argv = [
            "--rounds", str(self.rounds), "--seed", str(self.seed),
            "--efficiency", repr(self.efficiency), "--attack", self.attack,
            "--format", self.fmt, "--deterministic-output", "--out", out,
        ]
        if self.eve_bases is not None:
            argv += ["--eve-bases", self.eve_bases]
        if self.check:
            argv.append("--check")
        return argv

    def expect(self) -> dict:
        return {
            "rounds": self.rounds, "seed": self.seed, "efficiency": self.efficiency,
            "attack": self.attack, "eve_bases": self.eve_bases, "check": self.check,
        }


def operations(workload: str, seed: int) -> list[Operation]:
    """The fixed list of operations that each pass of a run repeats."""
    if workload == "ideal-large":
        return [Operation(LARGE_ROUNDS, seed, 1.0, "none", None, "json", False)]
    if workload == "eve-single-large":
        return [Operation(LARGE_ROUNDS, seed, 0.9, "single", "random", "json", False)]
    ops = [
        Operation(SWEEP_ROUNDS, sweep_seed, eff, attack, eve_bases, fmt, True)
        for attack, eve_bases in SWEEP_SCENARIOS
        for eff in SWEEP_EFFICIENCIES
        for sweep_seed, fmt in zip(SWEEP_SEEDS, ("json", "csv"))
    ]
    # --seed orders the pass; the set of calls is the same for every seed.
    random.Random(seed).shuffle(ops)
    return ops


def reference_s() -> float:
    """Time of a fixed pure-Python loop that does not touch the program."""
    start = time.perf_counter()
    table: dict = {}
    state = 1
    for i in range(REFERENCE_N):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        key = (i & 63, state & 7)
        table[key] = table.get(key, 0.0) + state * 2.3283064365386963e-10
    return time.perf_counter() - start


def host_speed_s() -> float:
    """Median of 25 reference loops, recorded at the start and end of a run."""
    return statistics.median(reference_s() for _ in range(25))


def import_program(tmpdir: str):
    """Import hyperqkd from this checkout and make the warm-up call."""
    sys.path.insert(0, SRC)
    import hyperqkd
    import hyperqkd.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(hyperqkd.__file__))) != SRC:
        raise SystemExit(f"error: imported hyperqkd from {hyperqkd.__file__}, not {SRC}")
    out = os.path.join(tmpdir, f"warmup-{os.getpid()}.json")
    if hyperqkd.cli.main(["--rounds", "100", "--deterministic-output", "--out", out]) != 0:
        raise SystemExit("error: the 100-round warm-up call failed")
    return hyperqkd.cli


def setup_sample(tmpdir: str) -> float:
    """Set-up time of one more fresh interpreter, as it measures itself."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", tmpdir],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs operations, checks their reports and keeps the tallies of a run."""

    def __init__(self, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[int, str] = {}
        self._passed: dict[int, bool] = {}

    def call(self, main, index: int, op: Operation) -> float:
        """Run operation ``index`` once through ``main``; return its wall time."""
        out = os.path.join(self.tmpdir, f"op{index}.{op.fmt}")
        if os.path.exists(out):
            os.remove(out)
        argv = op.argv(out)
        gc.collect()
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        ok = self._verify(index, op, rc, out)
        if rc != 0 or not ok:
            self.failed += 1
        return elapsed

    def _verify(self, index: int, op: Operation, rc: int, out: str) -> bool:
        """Check a report the first time; on every repeat, require the same bytes."""
        try:
            with open(out, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            self.problems.append(f"op {index} ({op}) wrote no report: {exc}")
            return False
        digest = hashlib.sha256(data).hexdigest()
        if index in self._digests:
            if self._digests[index] != digest:
                self.problems.append(f"op {index} ({op}): repeated report bytes differ")
                return False
            return self._passed[index]
        try:
            flat = check.parse_report(data.decode("utf-8"), op.fmt)
        except ValueError as exc:
            flat, found = {}, [f"unreadable report: {exc}"]
        else:
            found = check.check_report(flat, op.expect())
        if rc not in ((0, 1) if op.check else (0,)):
            found.append(f"exit code {rc}")
        elif op.check and rc != (0 if flat.get("checks_passed") else 1):
            found.append(f"exit code {rc} disagrees with checks_passed")
        self.problems += [f"op {index} ({op}): {p}" for p in found]
        self._digests[index] = digest
        self._passed[index] = not found
        return not found


def timed_run(runner: Runner, main, ops: list[Operation], seconds: float):
    """Wall time of each call, and the same scaled to the reference host speed."""
    deadline = time.perf_counter() + seconds
    wall: list[float] = []
    scaled: list[float] = []
    before = reference_s()
    while True:
        for index, op in enumerate(ops):
            elapsed = runner.call(main, index, op)
            after = reference_s()
            wall.append(elapsed)
            scaled.append(elapsed * 2.0 * REFERENCE_S / (before + after))
            before = after
        if time.perf_counter() >= deadline:
            break
    if len(wall) == len(ops):
        # One pass only: repeat one call so byte-identity is still checked.
        attempted, failed = runner.attempted, runner.failed
        runner.call(main, 0, ops[0])
        runner.attempted, runner.failed = attempted, failed
    return wall, scaled


def end_to_end(times: list[float], rounds: int, setup_s: float) -> dict:
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else p50
    return {
        "rounds_per_s": {"value": rounds / p50, "unit": "rounds/s"},
        "call_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "call_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_run(runner: Runner, cli, ops: list[Operation], seconds: float):
    """Each call runs untraced, then traced; returns the per-layer metrics."""
    tracer = Tracer()
    untraced_s = 0.0
    traced_ops = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        for index, op in enumerate(ops):
            untraced_s += runner.call(cli.main, index, op)
            with tracer.patched() as traced_main:
                runner.call(traced_main, index, op)
            traced_ops += 1
            rounds += op.rounds
        if time.perf_counter() >= deadline:
            break
    return layer_metrics(tracer, traced_ops, rounds, untraced_s), tracer


def layer_metrics(tracer, n: int, rounds: int, untraced_s: float) -> dict:
    """Per-operation layer figures; a layer's self time excludes its children."""
    t = tracer.get
    measure = (t("protocol.measure_party"), t("adversary.measure_party"))
    values = {
        "rng.for_round_s": t("rng.for_round").self_s,
        "rng.for_round_calls": t("rng.for_round").calls,
        "hilbert.measure_party_s": sum(s.self_s for s in measure),
        "hilbert.measure_party_calls": sum(s.calls for s in measure),
        "protocol.run_round_s": t("montecarlo.run_round").total_s,
        "protocol.run_round_calls": t("montecarlo.run_round").calls,
        "protocol.self_s": t("montecarlo.run_round").self_s + sum(
            t(f"montecarlo.{name}").self_s
            for name in ("sift", "verify_sample", "build_keys")
        ),
        "protocol.sift_s": t("montecarlo.sift").total_s,
        "protocol.verify_sample_s": t("montecarlo.verify_sample").total_s,
        "protocol.build_keys_s": t("montecarlo.build_keys").total_s,
        "protocol.key_bits": tracer.key_bits,
        "adversary.apply_s": t("adversary.apply").self_s,
        "adversary.eve_information_s": t("montecarlo.eve_information").total_s,
        "adversary.eve_guess_accuracy_s": t("montecarlo.eve_guess_accuracy").total_s,
        "adversary.self_s": sum(
            t(name).self_s for name in (
                "adversary.apply", "montecarlo.eve_information",
                "montecarlo.eve_guess_accuracy",
            )
        ),
        "montecarlo.run_batch_s": t("cli.run_batch").total_s,
        "montecarlo.detection_probability_s": t("montecarlo.detection_probability").total_s,
        "montecarlo.self_s": t("cli.run_batch").self_s
        + t("montecarlo.detection_probability").self_s,
        "cli.parse_config_s": t("cli.parse_config").total_s,
        "cli.evaluate_checks_s": t("cli.evaluate_checks").total_s,
        "cli.emit_report_s": t("cli.emit_report").total_s,
        "cli.self_s": sum(
            t(name).self_s for name in (
                "cli.main", "cli.parse_config", "cli.evaluate_checks", "cli.emit_report",
            )
        ),
        "cli.report_bytes": tracer.report_bytes,
        "trace.wall_s": t("cli.main").total_s,
        "trace.overhead_s": t("cli.main").total_s - untraced_s,
    }
    metrics = {
        name: {
            "value": value / n,
            "unit": "count" if name.endswith(("_calls", "_bits", "_bytes")) else "s",
        }
        for name, value in values.items()
    }
    metrics["protocol.key_bits_per_round"] = {
        "value": tracer.key_bits / rounds, "unit": "bits/round",
    }
    return metrics


def self_time_gap(metrics: dict) -> float:
    """Traced wall time minus the sum of every layer's self time."""
    layers = ("rng.for_round_s", "hilbert.measure_party_s", "protocol.self_s",
              "adversary.self_s", "montecarlo.self_s", "cli.self_s")
    return metrics["trace.wall_s"]["value"] - sum(metrics[n]["value"] for n in layers)


def run(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        cli = import_program(tmpdir)
        setup = [time.perf_counter() - _T0]
        setup += [setup_sample(tmpdir) for _ in range(SETUP_SAMPLES - 1)]
        host_start = host_speed_s()
        ops = operations(args.workload, args.seed)
        runner = Runner(tmpdir)
        detail: dict = {"workload": args.workload, "seed": args.seed,
                        "trace": args.trace, "setup_samples_s": setup}
        if args.trace:
            metrics, tracer = traced_run(runner, cli, ops, args.seconds)
            gap = self_time_gap(metrics)
            if abs(gap) > 1e-9 * max(1.0, metrics["trace.wall_s"]["value"]):
                runner.problems.append(f"layer self times miss the traced wall time by {gap}")
            detail["spans"] = {name: vars(total) for name, total in tracer.totals.items()}
        else:
            wall, scaled = timed_run(runner, cli.main, ops, args.seconds)
            setup_s = statistics.median(setup)
            metrics = end_to_end(scaled, ops[0].rounds, setup_s)
            detail["unscaled_metrics"] = end_to_end(wall, ops[0].rounds, setup_s)
            detail["call_wall_s"] = wall
            detail["call_scaled_s"] = scaled
        detail["reference_s"] = [host_start, host_speed_s()]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    detail["problems"] = runner.problems
    detail["result"] = result
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=2)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"reference loop: {detail['reference_s'][0] * 1e3:.2f} ms at start, "
          f"{detail['reference_s'][1] * 1e3:.2f} ms at end", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke() -> int:
    """Run every workload once, one pass each, with all checks."""
    plan = [(w, "1") for w in WORKLOADS] + [("check-sweep", "0")]
    status = 0
    for workload, trace in plan:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", trace],
            capture_output=True, text=True, timeout=170,
        )
        last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"{workload} trace={trace} exit={proc.returncode} {last[0]}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, one pass each")
    parser.add_argument("--setup-probe", metavar="TMPDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperqkd", "cli.py")):
        print(f"error: {SRC}/hyperqkd not found; run from a hyperqkd checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        import_program(args.setup_probe)
        print(time.perf_counter() - _T0)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
