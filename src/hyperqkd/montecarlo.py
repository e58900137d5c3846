"""Batch simulation driver and the estimators for the protocol's headline numbers.

A batch runs independent rounds whose randomness is derived per round from
the master seed, so results are bit-identical for a given configuration.
Rounds are simulated in fixed blocks of 16 384 as numpy columns (each
party's and each of Eve's measurements as one label code, and the
detections), computing each round's raw 64-bit draws in the documented
order and reading every decision off them as an integer. A basis is decided
by the draw's top bit and a measurement outcome by its top two bits, so the
top bits of a round's basis and measurement draws, concatenated in draw
order, index one column of a composed round table: at most 12 bits, one
table per attack shape, built once from the closed state set's fixed tables
in :mod:`hyperqkd.hilbert`. A detection is a comparison of the full draw
with the efficiency's threshold. Every record equals what the scalar
reference :func:`hyperqkd.protocol.run_round` gives for the same round.
Sifting and verification are array operations on those columns; the
verification picks are :func:`hyperqkd.protocol.partial_shuffle`, which
``verify_sample`` also calls. Key extraction, Eve's two estimators and the
detection strata each have one kernel over label codes, run once per batch
on the key rounds' columns: :func:`hyperqkd.protocol.key_bits`,
:func:`hyperqkd.adversary.eve_counts` and :func:`_detection`. The scalar
``build_keys``, ``eve_information``, ``eve_guess_accuracy`` and
:func:`detection_probability` gather the same codes from round records
(what Eve saw from each record's ``eve_trace``) and call the same kernels.
Eve's guess accuracy is an integer count of quarters divided once by
4 * key length. Each key is built, as every :class:`KeyBits` is, from its
bits and its rounds' ids and same-basis flags.
At a ``verify_fraction`` of 0 no round is compared and every coincidence
stays in the key.
Estimators report binomial standard errors, except Eve's information,
whose standard error is clustered by round.

The key-rate baseline for the efficiency comparison is the entangled-qubit
protocol in which only 2/9 of detected pairs yield a key bit; at the ideal
1.5 bits per coincidence the ratio is 27/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Iterable, Optional

import numpy as np

# run_round, sift, verify_sample, build_keys and the two Eve estimators are
# not used here; they stay importable from this module by name only because
# perfbench/spans.py traces the scalar stages under these names.
from .adversary import (  # noqa: F401
    AttackConfig,
    AttackKind,
    EveBasisStrategy,
    EveRecord,
    eve_counts,
    eve_guess_accuracy,
    eve_information,
)
from .errors import ConfigurationError
from .hilbert import BASES, LABELS, OUTCOME_LABEL, OUTCOME_POST, SHARED_ID, Photon, outcome_slots
from .protocol import (  # noqa: F401
    KeyBits,
    RoundRecord,
    VerificationReport,
    _is_real,
    build_keys,
    key_bits,
    partial_shuffle,
    run_round,
    sift,
    verify_sample,
)
from .rng import below_threshold, round_draws, stream_uniforms

#: Key bits per detected pair in the three-bases entangled-qubit baseline.
EKERT_BITS_PER_PAIR = 2.0 / 9.0

# Stream tag for the verification sampler, distinct from every round id.
_VERIFY_STREAM = 0x7665726966790001


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no count of rounds.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one batch run."""

    rounds: int
    seed: int = 42
    efficiency: float = 1.0
    attack: Optional[AttackConfig] = None
    verify_fraction: float = 0.1

    def validate(self) -> None:
        """Raise ConfigurationError listing every violated field.

        This is the one place where the config's rules live; the command
        line parses plain numbers and maps the error's ``fields`` to flags.
        The range tests are written so that NaN fails them.
        """
        problems = {}
        if not _is_int(self.rounds) or self.rounds < 1:
            problems["rounds"] = f"must be an integer >= 1, got {self.rounds!r}"
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            problems["seed"] = f"must be a 64-bit unsigned integer, got {self.seed!r}"
        if not _is_real(self.efficiency) or not 0.0 < self.efficiency <= 1.0:
            problems["efficiency"] = f"must be in (0, 1], got {self.efficiency!r}"
        if not _is_real(self.verify_fraction) or not 0.0 <= self.verify_fraction < 1.0:
            problems["verify_fraction"] = f"must be in [0, 1), got {self.verify_fraction!r}"
        if self.attack is not None and not isinstance(self.attack, AttackConfig):
            problems["attack"] = f"must be an AttackConfig or None, got {self.attack!r}"
        if problems:
            raise ConfigurationError(
                "; ".join(f"{name} {text}" for name, text in problems.items()),
                fields=tuple(problems),
            )


def _as_dict(report) -> dict:
    """A report's fields in declaration order, with nested reports as dicts
    and None kept; unlike ``dataclasses.asdict`` it copies no value."""
    out = {}
    for name in _FIELD_NAMES[type(report)]:
        value = getattr(report, name)
        out[name] = _as_dict(value) if type(value) in _FIELD_NAMES else value
    return out


@dataclass(frozen=True)
class DetectionStats:
    """Same-basis mismatch rates stratified by whether Eve's two bases matched."""

    same_bases_compared: int
    same_bases_mismatches: int
    same_bases_rate: Optional[float]
    same_bases_se: Optional[float]
    diff_bases_compared: int
    diff_bases_mismatches: int
    diff_bases_rate: Optional[float]
    diff_bases_se: Optional[float]

    to_dict = _as_dict


@dataclass(frozen=True)
class BatchStats:
    """Monte Carlo estimates for one batch, with binomial standard errors.

    ``same_basis_mismatches`` counts over all ``same_basis_count`` rounds.
    """

    rounds: int
    coincidences: int
    coincidence_rate: Optional[float]
    coincidence_rate_se: Optional[float]
    same_basis_count: int
    diff_basis_count: int
    discarded_count: int
    bits_per_coincidence: Optional[float]
    bits_per_coincidence_se: Optional[float]
    ekert_ratio: Optional[float]
    ekert_ratio_se: Optional[float]
    same_basis_mismatches: int
    same_basis_mismatch_rate: Optional[float]
    same_basis_mismatch_se: Optional[float]
    key_length: int
    key_bit_error_rate: Optional[float]
    key_bit_error_se: Optional[float]
    verification: VerificationReport
    eve_information: Optional[float]
    eve_information_se: Optional[float]
    eve_guess_accuracy: Optional[float]
    detection: Optional[DetectionStats]

    to_dict = _as_dict


# Field names of the reports that ``to_dict`` walks, in declaration order.
_FIELD_NAMES = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (VerificationReport, DetectionStats, BatchStats)
}


# Rounds per block of the columnar engine: large enough that numpy's per-call
# overhead is small, small enough that a block's uint64 draws and indices
# (128 KiB each) stay in a core's L2 cache. 16 384 was the fastest of 4 096
# to 65 536 in a sweep of _simulate at 10**5 rounds on 2 vCPUs.
_BLOCK_ROUNDS = 16_384

@dataclass(frozen=True, eq=False)
class _Rounds:
    """A batch's rounds as columns indexed by round id.

    ``alice`` and ``bob`` hold each party's measurement as its label code
    (int8), which carries the basis as ``code >> 2``; a party's outcome is
    measured whether or not it is detected. ``eve`` holds Eve's label codes,
    one row per photon she measured in measurement order, and is None
    without an attack.
    """

    alice: np.ndarray
    bob: np.ndarray
    alice_detected: np.ndarray
    bob_detected: np.ndarray
    eve: Optional[np.ndarray]

    def records(self) -> tuple[RoundRecord, ...]:
        """The rounds as the RoundRecords that ``run_round`` returns."""
        cols = [c.tolist() for c in (self.alice, self.bob, self.alice_detected, self.bob_detected)]
        if self.eve is None:
            traces = [None] * len(cols[0])
        else:
            traces = [
                EveRecord(rid, tuple(BASES[c >> 2] for c in codes),
                          tuple(LABELS[c] for c in codes))
                for rid, codes in enumerate(self.eve.T.tolist())
            ]
        return tuple(
            RoundRecord(
                round_id=rid,
                alice_basis=BASES[a >> 2],
                bob_basis=BASES[b >> 2],
                alice_outcome=LABELS[a] if ad else None,
                bob_outcome=LABELS[b] if bd else None,
                alice_detected=ad,
                bob_detected=bd,
                eve_trace=trace,
            )
            for rid, (a, b, ad, bd, trace) in enumerate(zip(*cols, traces))
        )


@dataclass(frozen=True)
class BatchResult:
    """Everything a batch produced: estimators, raw rounds, and both keys."""

    stats: BatchStats
    alice_key: KeyBits
    bob_key: KeyBits
    _rounds: _Rounds = field(repr=False, compare=False)

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """Every round's RoundRecord in round order, built on first access."""
        return self._rounds.records()


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def ekert_ratio(bits_per_coincidence: float) -> float:
    """Key-rate advantage over the 2/9-bits-per-pair baseline."""
    if not bits_per_coincidence >= 0.0:
        raise ValueError(
            f"bits_per_coincidence must be >= 0, got {bits_per_coincidence!r}"
        )
    return bits_per_coincidence / EKERT_BITS_PER_PAIR


def _rate(count: int, n: int) -> tuple[Optional[float], Optional[float]]:
    """``count / n`` and its binomial SE, or two Nones when ``n`` is 0."""
    if not n:
        return None, None
    rate = count / n
    return rate, _binomial_se(rate, n)


def _detection(eve_bases: np.ndarray, mismatch: np.ndarray) -> DetectionStats:
    """The detection strata of the compared rounds: ``eve_bases`` holds
    Eve's two basis codes per round (shape (2, n)) and ``mismatch`` whether
    the parties' outcomes differ."""
    equal = eve_bases[0] == eve_bases[1]
    same_n = int(np.count_nonzero(equal))
    same_m = int(np.count_nonzero(mismatch & equal))
    diff_n = len(equal) - same_n
    diff_m = int(np.count_nonzero(mismatch)) - same_m
    return DetectionStats(same_n, same_m, *_rate(same_m, same_n),
                          diff_n, diff_m, *_rate(diff_m, diff_n))


def detection_probability(records: Iterable[RoundRecord]) -> DetectionStats:
    """Stratified same-basis mismatch rates for a double-intercept batch.

    Compares all coincident same-basis rounds, split by whether Eve used
    equal or different bases on the two photons, as each round's
    ``eve_trace`` records them. Raises ValueError if any compared round
    lacks a two-basis trace.
    """
    bases = []
    mismatch = []
    for rec in records:
        if not rec.coincident or not rec.same_basis:
            continue
        trace = rec.eve_trace
        if trace is None or len(trace.bases) != 2:
            raise ValueError(
                f"round {rec.round_id} lacks a double-intercept trace; "
                "detection_probability needs a double-intercept batch"
            )
        bases.append([BASES.index(b) for b in trace.bases])
        mismatch.append(rec.alice_outcome is not rec.bob_outcome)
    return _detection(np.array(bases, dtype=np.int8).reshape(-1, 2).T,
                      np.array(mismatch, dtype=bool))


def _draw_widths(attack: Optional[AttackConfig]) -> tuple[int, ...]:
    """How many top bits of each of a round's decision draws ``run_round``
    reads, in its draw order: one for a basis, two for a measurement. The
    detection draws after them are compared in full."""
    if attack is None:
        eve = ()
    else:
        photons = 1 if attack.kind is AttackKind.SINGLE_INTERCEPT else 2
        random = attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND
        eve = (1,) * (photons if random else 0) + (2,) * photons
    return eve + (1, 1, 2, 2)


@cache
def _round_table(attack: Optional[AttackConfig]) -> np.ndarray:
    """Every round of ``attack``'s shape as one table of label codes.

    Column ``p`` is the round whose decision draws carry the bit pattern
    ``p``: the top bits of the draws (see :func:`_draw_widths`) concatenated
    in draw order, the first draw's the most significant. Its rows are Eve's
    codes in measurement order, then Alice's and Bob's. The table is built
    once per attack, by running every pattern through the closed set's
    measurement chain (``outcome_slots``, ``OUTCOME_LABEL`` and
    ``OUTCOME_POST``) in ``run_round``'s order.
    """
    widths = _draw_widths(attack)
    patterns = np.arange(1 << sum(widths), dtype=np.uint64)
    shift = sum(widths)
    draws = []
    for width in widths:
        shift -= width
        draws.append((patterns >> shift & (1 << width) - 1) << 64 - width)
    x = iter(draws)
    state, codes = SHARED_ID, []

    def measure(photons, bases):
        nonlocal state
        for photon, basis in zip(photons, bases):
            slots = outcome_slots(state, photon, basis, next(x))
            codes.append(OUTCOME_LABEL.take(slots) + 4 * basis)
            state = OUTCOME_POST.take(slots)

    if attack is not None:
        single = attack.kind is AttackKind.SINGLE_INTERCEPT
        photons = (Photon.TWO,) if single else (Photon.ONE, Photon.TWO)
        if attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
            bases = [(next(x) >> 63).astype(np.int8) for _ in photons]
        else:
            # Fixed strategies take no draw, so there is no stream to pass.
            bases = [BASES.index(b) for b in attack.bases_for_round(None)]
        measure(photons, bases)
    measure((Photon.ONE, Photon.TWO), [(next(x) >> 63).astype(np.int8) for _ in range(2)])
    table = np.array(codes, dtype=np.int8)
    table.flags.writeable = False
    return table


def _simulate(config: SimConfig) -> _Rounds:
    """Every round of the batch, block by block, in run_round's draw order.

    A round's label codes are one column of its attack's round table, at the
    index its decision draws' top bits make. At efficiency 1 every detection
    succeeds, so those draws are not computed.
    """
    n = config.rounds
    attack = config.attack
    widths = _draw_widths(attack)
    table = _round_table(attack)
    eve_photons = len(table) - 2
    detect = config.efficiency < 1.0
    cols = _Rounds(
        *(np.empty(n, dtype=np.int8) for _ in range(2)),
        *(np.empty(n, dtype=bool) if detect else np.ones(n, dtype=bool) for _ in range(2)),
        np.empty((eve_photons, n), dtype=np.int8) if eve_photons else None,
    )
    outs = (*(cols.eve if eve_photons else ()), cols.alice, cols.bob)
    threshold = np.uint64(below_threshold(config.efficiency)) if detect else None
    for lo in range(0, n, _BLOCK_ROUNDS):
        hi = min(lo + _BLOCK_ROUNDS, n)
        x = round_draws(config.seed, np.arange(lo, hi, dtype=np.uint64), len(widths) + 2 * detect)
        index = next(x) >> (64 - widths[0])
        for width in widths[1:]:
            index <<= width
            # A draw's buffer is rewritten by the next draw, so it can be
            # shifted in place.
            draw = next(x)
            draw >>= 64 - width
            index |= draw
        index = index.view(np.int64)
        # Every index is in range; "clip" lets take write straight into out.
        for row, out in zip(table, outs):
            row.take(index, out=out[lo:hi], mode="clip")
        if detect:
            np.less(next(x), threshold, out=cols.alice_detected[lo:hi])
            np.less(next(x), threshold, out=cols.bob_detected[lo:hi])
    return cols


def _verify(
    config: SimConfig, rounds: _Rounds, same_ids: np.ndarray
) -> tuple[VerificationReport, np.ndarray]:
    """``verify_sample`` on the same-basis rounds: the report and the
    round ids it consumed."""
    n = len(same_ids)
    k = math.ceil(config.verify_fraction * n)
    if k == 0:
        return VerificationReport(0, 0, None), same_ids[:0]
    chosen = same_ids[partial_shuffle(n, stream_uniforms(config.seed, _VERIFY_STREAM, k))]
    mismatches = int(np.count_nonzero(rounds.alice[chosen] != rounds.bob[chosen]))
    return VerificationReport(k, mismatches, mismatches / k), chosen


def eve_information_se(known_bits: int, known_sq: int, width_sq: int, key_len: int) -> float:
    """Standard error of Eve's information, clustered by round.

    Eve knows both bits of a same-basis round or neither, so the key bits
    are not independent. With b_r each key round's bits, k_r = b_r if she
    knows the round else 0, and the integer counts K = sum_r k_r
    (``known_bits``), A = sum_r k_r**2 (``known_sq``), B = sum_r b_r**2
    (``width_sq``) and L = ``key_len``, the ratio estimator's
    sqrt(sum_r (k_r - K/L * b_r)**2) / L is sqrt(A L**2 - 2 K A L + K**2 B)
    / L**2. The radicand is an exact integer, so the result is the same on
    every host.
    """
    radicand = (known_sq * key_len**2 - 2 * known_bits * known_sq * key_len
                + known_bits**2 * width_sq)
    return math.sqrt(radicand) / key_len**2


def run_batch(config: SimConfig) -> BatchResult:
    """Run a configured batch and compute its estimators.

    Identical configurations produce bit-identical results. The headline
    bits-per-coincidence counts every coincident round as key material; the
    bits consumed by verification show up separately in ``key_length``.
    """
    config.validate()
    rounds = _simulate(config)
    coincident = rounds.alice_detected & rounds.bob_detected
    same = coincident & ((rounds.alice >> 2) == (rounds.bob >> 2))
    same_ids = np.flatnonzero(same)
    verification, consumed = _verify(config, rounds, same_ids)

    in_key = coincident.copy()
    in_key[consumed] = False
    key_ids = np.flatnonzero(in_key)
    key_same = same.take(key_ids)
    bob_codes = rounds.bob.take(key_ids)
    alice_bits, bob_bits = key_bits(rounds.alice.take(key_ids), bob_codes, key_same)

    coincidences = int(np.count_nonzero(coincident))
    same_n = len(same_ids)
    diff_n = coincidences - same_n
    same_mismatch = rounds.alice[same_ids] != rounds.bob[same_ids]
    mismatches = int(np.count_nonzero(same_mismatch))
    key_len = len(alice_bits)
    key_errors = int(np.count_nonzero(alice_bits != bob_bits))

    info = info_se = accuracy = detection = None
    if config.attack is not None:
        if key_len:
            # Eve's photon-2 outcome decides what she knows of Bob's key.
            known_rounds, known_same, quarters = eve_counts(
                rounds.eve[-1].take(key_ids), bob_codes >> 2, key_same)
            info = (known_rounds + known_same) / key_len
            # A same-basis round weighs 2 bits (4 squared), any other 1.
            info_se = eve_information_se(known_rounds + known_same, known_rounds + 3 * known_same,
                                         key_len + 2 * int(np.count_nonzero(key_same)), key_len)
            accuracy = quarters / (4 * key_len)
        if config.attack.kind is AttackKind.DOUBLE_INTERCEPT:
            detection = _detection(rounds.eve[:, same_ids] >> 2, same_mismatch)

    bpc = bpc_se = ratio = ratio_se = None
    if coincidences:
        bpc = (2 * same_n + diff_n) / coincidences
        # bits/coincidence = 1 + (same-basis fraction), so its SE is that
        # fraction's binomial SE.
        bpc_se = _binomial_se(same_n / coincidences, coincidences)
        ratio = ekert_ratio(bpc)
        ratio_se = bpc_se / EKERT_BITS_PER_PAIR
    coincidence_rate, coincidence_se = _rate(coincidences, config.rounds)
    mism_rate, mism_se = _rate(mismatches, same_n)
    key_err, key_err_se = _rate(key_errors, key_len)
    stats = BatchStats(
        rounds=config.rounds,
        coincidences=coincidences,
        coincidence_rate=coincidence_rate,
        coincidence_rate_se=coincidence_se,
        same_basis_count=same_n,
        diff_basis_count=diff_n,
        discarded_count=config.rounds - coincidences,
        bits_per_coincidence=bpc,
        bits_per_coincidence_se=bpc_se,
        ekert_ratio=ratio,
        ekert_ratio_se=ratio_se,
        same_basis_mismatches=mismatches,
        same_basis_mismatch_rate=mism_rate,
        same_basis_mismatch_se=mism_se,
        key_length=key_len,
        key_bit_error_rate=key_err,
        key_bit_error_se=key_err_se,
        verification=verification,
        eve_information=info,
        eve_information_se=info_se,
        eve_guess_accuracy=accuracy,
        detection=detection,
    )
    alice_key = KeyBits(alice_bits, key_ids, key_same)
    bob_key = KeyBits(bob_bits, key_ids, key_same)
    return BatchResult(stats=stats, alice_key=alice_key, bob_key=bob_key, _rounds=rounds)
