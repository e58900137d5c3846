"""Layer spans taken from outside the program.

``Tracer.patched()`` replaces each traced function of hyperqkd under the name
its calling layer looks it up by, and puts the originals back on exit.
Each wrapped call is one span; a span's self time is its duration minus
the durations of the wrapped calls made inside it. Only totals per span
name are kept, so memory does not grow with the number of rounds.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

#: (span name, module whose global is replaced, attribute) for plain functions.
_FUNCTIONS = (
    ("cli.run_batch", "hyperqkd.cli", "run_batch"),
    ("cli.parse_config", "hyperqkd.cli", "parse_config"),
    ("cli.evaluate_checks", "hyperqkd.cli", "evaluate_checks"),
    ("cli.emit_report", "hyperqkd.cli", "emit_report"),
    ("montecarlo.run_round", "hyperqkd.montecarlo", "run_round"),
    ("montecarlo.sift", "hyperqkd.montecarlo", "sift"),
    ("montecarlo.verify_sample", "hyperqkd.montecarlo", "verify_sample"),
    ("montecarlo.build_keys", "hyperqkd.montecarlo", "build_keys"),
    ("montecarlo.eve_information", "hyperqkd.montecarlo", "eve_information"),
    ("montecarlo.eve_guess_accuracy", "hyperqkd.montecarlo", "eve_guess_accuracy"),
    ("montecarlo.detection_probability", "hyperqkd.montecarlo", "detection_probability"),
    ("protocol.measure_party", "hyperqkd.protocol", "measure_party"),
    ("adversary.measure_party", "hyperqkd.adversary", "measure_party"),
)


@dataclass
class SpanTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Accumulates span totals for the functions it wraps."""

    def __init__(self) -> None:
        self.totals: dict[str, SpanTotal] = {}
        self.key_bits = 0
        self.report_bytes = 0
        # Child time of each open span, innermost last.
        self._open: list[float] = []

    def wrap(self, name, fn, on_result=None):
        total = self.totals.setdefault(name, SpanTotal())
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                total.calls += 1
                total.total_s += elapsed
                total.self_s += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_key_bits(self, keys) -> None:
        self.key_bits += len(keys[0].bits)

    def _count_report_bytes(self, text: str) -> None:
        self.report_bytes += len(text.encode("utf-8"))

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function; yield the traced ``cli.main``."""
        # Imported here: run.py puts the checkout's src/ on sys.path first.
        from hyperqkd.adversary import AttackConfig
        from hyperqkd.rng import RandomSource

        hooks = {
            "montecarlo.build_keys": self._count_key_bits,
            "cli.emit_report": self._count_report_bytes,
        }
        saved = []
        try:
            for name, module_name, attr in _FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hooks.get(name)))
            for owner, attr, name in (
                (AttackConfig, "apply", "adversary.apply"),
                (RandomSource, "for_round", "rng.for_round"),
            ):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__))
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)
            cli = importlib.import_module("hyperqkd.cli")
            yield self.wrap("cli.main", cli.main)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def get(self, name: str) -> SpanTotal:
        return self.totals.get(name, SpanTotal())
