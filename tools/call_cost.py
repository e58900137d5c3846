"""Set-up time, and steady-state cost of one in-process command-line call.

Imports ``hyperqkd.cli`` and makes one 100-round call, then runs
``hyperqkd.cli.main`` on the given arguments (with
``--deterministic-output --out <temporary file>`` added) a few times to
warm up, then ``--calls`` times with ``gc.collect()`` before each call, as
perfbench/run.py does, and prints one JSON object:

* ``setup_s``: the wall time of the import and the 100-round
  ``--deterministic-output`` call, perfbench's set-up time without the
  interpreter's start;
* ``setup_cpu_s``: the process CPU time (``time.process_time()``) over
  the same window, which counts the CPU time of every thread of the
  process, such as those numpy's BLAS starts at import;
* ``minflt``: minor page faults of the process during each call
  (``resource.getrusage``), their median, minimum and maximum;
* ``cpu_ms``: the median process CPU time of a call;
* ``transient_mb``: ``tracemalloc``'s peak during one more call, less
  what was traced before it.

For example, the two 10**5-round workloads of perfbench:

    python3 tools/call_cost.py -- --rounds 100000 --seed 1 --attack none
    python3 tools/call_cost.py -- --rounds 100000 --seed 1 --efficiency 0.9 \\
        --attack single --eve-bases random

The package is imported from ``--src`` (default: the ``src/`` beside this
script), so one copy of the script can cost two checkouts. Fault counts
depend on the C library's allocator and on what ran before, so compare
two checkouts on one host, in fresh processes that alternate between them
(tools/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def call_cost(main, argv: list[str], calls: int, warmup: int) -> dict:
    """Faults and CPU time of ``calls`` calls after ``warmup`` calls, and
    the traced transient memory of one more."""
    faults, cpu = [], []
    for i in range(warmup + calls):
        gc.collect()
        with contextlib.redirect_stderr(io.StringIO()):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.process_time()
            main(argv)
            spent = time.process_time() - start
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if i >= warmup:
            faults.append(after - before)
            cpu.append(spent)
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "minflt": {"median": statistics.median(faults), "min": min(faults), "max": max(faults)},
        "cpu_ms": statistics.median(cpu) * 1e3,
        "transient_mb": (peak - held) / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=20, help="measured calls (default: 20)")
    parser.add_argument("--warmup", type=int, default=3,
                        help="calls made first and not measured (default: 3)")
    parser.add_argument("--src", default=SRC,
                        help="directory hyperqkd is imported from (default: %(default)s)")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="hyperqkd arguments, after --")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.warmup < 0:
        parser.error("--calls must be >= 1 and --warmup >= 0")
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    with tempfile.TemporaryDirectory() as tmpdir:
        out = os.path.join(tmpdir, "report")
        start, cpu_start = time.perf_counter(), time.process_time()
        sys.path.insert(0, os.path.abspath(args.src))
        from hyperqkd.cli import main as hyperqkd_main

        if hyperqkd_main(["--rounds", "100", "--deterministic-output", "--out", out]) != 0:
            raise SystemExit("error: the 100-round set-up call failed")
        setup_s = time.perf_counter() - start
        setup_cpu_s = time.process_time() - cpu_start
        argv = cli_args + ["--deterministic-output", "--out", out]
        cost = call_cost(hyperqkd_main, argv, args.calls, args.warmup)
    json.dump({"argv": cli_args, "setup_s": setup_s, "setup_cpu_s": setup_cpu_s, **cost},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
