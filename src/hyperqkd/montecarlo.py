"""Batch simulation driver and the estimators for the protocol's headline numbers.

A batch runs independent rounds whose randomness is derived per round from
the master seed, so results are bit-identical for a given configuration.
Rounds are simulated in fixed blocks as numpy columns (each party's and
each of Eve's measurements as one label code, and the detections),
computing each round's raw 64-bit draws in the documented order and
reading every decision off them as an integer: a basis is the draw's top
bit, a measurement outcome a gather on the closed state set's fixed tables
in :mod:`hyperqkd.hilbert` at the draw's top two bits, and a detection a
comparison with the efficiency's threshold. Every record equals what the
scalar reference :func:`hyperqkd.protocol.run_round` gives for the same
round. Sifting, verification and the detection strata are array operations
on those columns. Key extraction and Eve's two estimators are gathers on
small fixed tables: each key round picks, for each party, a row holding its
two bits or its one bit and a filler, and for Eve whether she knows the
round and her guess scores summed in quarters; dropping the fillers leaves
the key bits in key order. Eve's tables come from the exact Bell overlaps of
:mod:`hyperqkd.hilbert`, so her guess accuracy is an integer count of
quarters divided once by 4 * key length.
Each key is built, as every :class:`KeyBits` is, from its bits and its
rounds' ids and same-basis flags. All of it is computed exactly as the
reference functions ``sift``, ``verify_sample``, ``build_keys``,
``eve_information``, ``eve_guess_accuracy`` and
:func:`detection_probability` compute it; those read what Eve saw in a
round from its record's ``eve_trace``, which the engine holds as the
round's column of Eve's label codes.
``SimConfig.workers`` is accepted and echoed but changes nothing. At a
``verify_fraction`` of 0 the engine compares no round and skips
verification, while ``verify_sample`` itself rejects a fraction of 0.
Estimators report binomial standard errors, except Eve's information,
whose standard error is clustered by round.

The key-rate baseline for the efficiency comparison is the entangled-qubit
protocol in which only 2/9 of detected pairs yield a key bit; at the ideal
1.5 bits per coincidence the ratio is 27/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

# The scalar reference pipeline (run_round, sift, verify_sample, build_keys
# and the two Eve estimators) stays importable from this module by name:
# perfbench/spans.py traces the stages under these names.
from .adversary import (  # noqa: F401
    AttackConfig,
    AttackKind,
    EveBasisStrategy,
    EveRecord,
    eve_guess_accuracy,
    eve_information,
    guess_score,
    knows_outcome,
)
from .errors import ConfigurationError
from .hilbert import BASES, LABELS, OUTCOME_LABEL, OUTCOME_POST, SHARED_ID, Photon, outcome_slots
from .protocol import (  # noqa: F401
    DIFF,
    SAME,
    KeyBits,
    RoundRecord,
    VerificationReport,
    build_keys,
    encode_diff_basis,
    encode_same_basis,
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


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one batch run.

    ``workers`` is validated and echoed in reports; the batch always runs in
    one process, so it changes no result.
    """

    rounds: int
    seed: int = 42
    efficiency: float = 1.0
    attack: Optional[AttackConfig] = None
    verify_fraction: float = 0.1
    workers: int = 1

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
        if not _is_int(self.workers) or self.workers < 1:
            problems["workers"] = f"must be an integer >= 1, got {self.workers!r}"
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
    """Monte Carlo estimates for one batch, with binomial standard errors."""

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
    same_basis_compared: int
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
# overhead is small, small enough that a block's draws stay a few megabytes.
_BLOCK_ROUNDS = 65_536

# A measurement is held as its label code in hilbert's LABELS, whose basis
# code is code >> 2; two codes of the same basis are equal exactly when the
# labels are. A key-bit row holds a round's bits padded to two with
# _FILLER, which is no bit value and fits in two bits. Row 2 * label code + (0 for a same-basis
# round, 1 otherwise) of _BIT_ROWS is the label's two-bit code, or its one
# bit and the filler.
_FILLER = 2
_BIT_ROWS = np.array(
    [row for lab in LABELS
     for row in (encode_same_basis(lab), (encode_diff_basis(lab), _FILLER))],
    dtype=np.uint8,
)
# Cell 2 * (Eve's photon-2 label code) + receiver's basis code: whether she
# knows the receiver's outcome. Entry 2 * cell + (0 for a same-basis round, 1
# otherwise) of _GUESS_QUARTERS: her guess scores for the round's key bits,
# summed, in quarters (each score is an exact number of quarters).
_EVE_KNOWS = np.array([[knows_outcome(lab, b) for b in BASES] for lab in LABELS])
_GUESS_QUARTERS = np.array(
    [int(4 * score) for lab in LABELS for b in BASES
     for score in (guess_score(lab, b, SAME, 0) + guess_score(lab, b, SAME, 1),
                   guess_score(lab, b, DIFF, 0))],
    dtype=np.int8,
)


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


def _detection_stats(compared: list[int], mismatched: list[int]) -> DetectionStats:
    same_rate, same_se = _rate(mismatched[0], compared[0])
    diff_rate, diff_se = _rate(mismatched[1], compared[1])
    return DetectionStats(
        same_bases_compared=compared[0],
        same_bases_mismatches=mismatched[0],
        same_bases_rate=same_rate,
        same_bases_se=same_se,
        diff_bases_compared=compared[1],
        diff_bases_mismatches=mismatched[1],
        diff_bases_rate=diff_rate,
        diff_bases_se=diff_se,
    )


def detection_probability(records: Iterable[RoundRecord]) -> DetectionStats:
    """Stratified same-basis mismatch rates for a double-intercept batch.

    Compares all coincident same-basis rounds, split by whether Eve used
    equal or different bases on the two photons, as each round's
    ``eve_trace`` records them. Raises ValueError if any compared round
    lacks a two-basis trace.
    """
    compared = [0, 0]
    mismatched = [0, 0]
    for rec in records:
        if not rec.coincident or not rec.same_basis:
            continue
        trace = rec.eve_trace
        if trace is None or len(trace.bases) != 2:
            raise ValueError(
                f"round {rec.round_id} lacks a double-intercept trace; "
                "detection_probability needs a double-intercept batch"
            )
        stratum = 0 if trace.bases[0] is trace.bases[1] else 1
        compared[stratum] += 1
        if rec.alice_outcome is not rec.bob_outcome:
            mismatched[stratum] += 1
    return _detection_stats(compared, mismatched)


def _basis(draws: np.ndarray) -> np.ndarray:
    """Basis codes read off raw draws: the top bit, so that a draw below
    2**63 (a uniform below 1/2) is type-I (code 0), as in choose_basis."""
    return (draws >> 63).astype(np.int8)


def _measure(state, photon: Photon, bases, draws: np.ndarray, out: np.ndarray):
    """Measure ``photon`` of closed-set states in ``bases`` (basis codes)
    with their raw ``draws``: write the outcomes' label codes into ``out``
    and return the post-measurement state ids."""
    slots = outcome_slots(state, photon, bases, draws)
    out[:] = OUTCOME_LABEL.take(slots) + 4 * bases
    return OUTCOME_POST.take(slots)


def _simulate(config: SimConfig) -> _Rounds:
    """Every round of the batch, block by block, in run_round's draw order.

    At efficiency 1 every detection succeeds, so those draws are not
    computed.
    """
    n = config.rounds
    attack = config.attack
    eve_photons = 0
    if attack is not None:
        eve_photons = 1 if attack.kind is AttackKind.SINGLE_INTERCEPT else 2
    eve_random = attack is not None and attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND
    detect = config.efficiency < 1.0
    draws = (eve_photons if eve_random else 0) + eve_photons + 4 + 2 * detect
    cols = _Rounds(
        *(np.empty(n, dtype=np.int8) for _ in range(2)),
        *(np.empty(n, dtype=bool) if detect else np.ones(n, dtype=bool) for _ in range(2)),
        np.empty((eve_photons, n), dtype=np.int8) if eve_photons else None,
    )
    photons = (Photon.TWO,) if eve_photons == 1 else (Photon.ONE, Photon.TWO)
    threshold = np.uint64(below_threshold(config.efficiency)) if detect else None
    for lo in range(0, n, _BLOCK_ROUNDS):
        hi = min(lo + _BLOCK_ROUNDS, n)
        x = round_draws(config.seed, np.arange(lo, hi, dtype=np.uint64), draws)
        state = SHARED_ID
        if eve_photons:
            if eve_random:
                eve_bases = [_basis(next(x)) for _ in photons]
            else:
                # Fixed strategies take no draw, so there is no stream to pass.
                eve_bases = [BASES.index(b) for b in attack.bases_for_round(None)]
            for k, photon in enumerate(photons):
                state = _measure(state, photon, eve_bases[k], next(x), cols.eve[k, lo:hi])
        a_basis = _basis(next(x))
        b_basis = _basis(next(x))
        state = _measure(state, Photon.ONE, a_basis, next(x), cols.alice[lo:hi])
        _measure(state, Photon.TWO, b_basis, next(x), cols.bob[lo:hi])
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
    if config.verify_fraction == 0.0 or n == 0:
        return VerificationReport(0, 0, None), same_ids[:0]
    k = math.ceil(config.verify_fraction * n)
    u = stream_uniforms(config.seed, _VERIFY_STREAM, k)
    i = np.arange(k)
    swap = i + np.minimum((u * (n - i)).astype(np.int64), n - i - 1)
    # The partial Fisher-Yates shuffle of verify_sample, holding only the
    # slots it has moved.
    slots: dict[int, int] = {}
    for a, b in enumerate(swap.tolist()):
        slots[a], slots[b] = slots.get(b, b), slots.get(a, a)
    chosen = same_ids[[slots[a] for a in range(k)]]
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

    Identical configurations produce bit-identical results; ``workers``
    changes nothing. The headline bits-per-coincidence counts every
    coincident round as key material; the bits consumed by verification
    show up separately in ``key_length``.
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
    key_diff = ~key_same
    # Alice's rows go in bits 0-1 and Bob's in bits 2-3 of one byte; both
    # parties' fillers fall on the same slots, so one mask drops them and
    # leaves the key bits in key order.
    alice_codes = rounds.alice.take(key_ids)
    bob_codes = rounds.bob.take(key_ids)
    packed = (_BIT_ROWS.take(2 * alice_codes + key_diff, axis=0)
              | _BIT_ROWS.take(2 * bob_codes + key_diff, axis=0) << 2).ravel()
    packed = packed[packed != (_FILLER | _FILLER << 2)]
    alice_bits = packed & 3
    bob_bits = packed >> 2

    coincidences = int(np.count_nonzero(coincident))
    same_n = len(same_ids)
    diff_n = coincidences - same_n
    same_mismatch = rounds.alice[same_ids] != rounds.bob[same_ids]
    mismatches = int(np.count_nonzero(same_mismatch))
    key_len = len(packed)
    key_errors = int(np.count_nonzero(alice_bits != bob_bits))

    info = info_se = accuracy = detection = None
    if config.attack is not None:
        if key_len:
            # Eve's photon-2 outcome decides what she knows of Bob's key.
            cell = 2 * rounds.eve[-1].take(key_ids) + (bob_codes >> 2)
            known = _EVE_KNOWS.ravel().take(cell)
            # A same-basis round weighs 2 bits (4 squared), any other 1.
            known_rounds = int(np.count_nonzero(known))
            known_same = int(np.count_nonzero(known & key_same))
            info = (known_rounds + known_same) / key_len
            info_se = eve_information_se(known_rounds + known_same, known_rounds + 3 * known_same,
                                         key_len + 2 * int(np.count_nonzero(key_same)), key_len)
            # One correctly rounded division of exact integers: bit for bit
            # what eve_guess_accuracy's exact float sum of quarters gives.
            accuracy = int(_GUESS_QUARTERS.take(2 * cell + key_diff).sum()) / (4 * key_len)
        if config.attack.kind is AttackKind.DOUBLE_INTERCEPT:
            eve_bases = rounds.eve[:, same_ids] >> 2
            equal = eve_bases[0] == eve_bases[1]
            detection = _detection_stats(
                [int(np.count_nonzero(equal)), int(np.count_nonzero(~equal))],
                [int(np.count_nonzero(same_mismatch & equal)),
                 int(np.count_nonzero(same_mismatch & ~equal))],
            )

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
        same_basis_compared=same_n,
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
