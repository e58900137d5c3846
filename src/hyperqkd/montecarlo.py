"""Batch simulation driver and the estimators for the protocol's headline numbers.

A batch runs independent rounds whose randomness is derived per round from
the master seed, so results are bit-identical for a given configuration.
Rounds are simulated in fixed blocks as numpy columns (bases, outcome
labels, detections and Eve's record), drawing each round's uniforms in the
documented order and sampling each measurement from
:class:`hyperqkd.hilbert.MeasurementTables`; every record equals what the
scalar reference :func:`hyperqkd.protocol.run_round` gives for the same
round. Sifting, verification, key extraction and the estimators are array
operations on those columns, computed exactly as the reference functions
``sift``, ``verify_sample``, ``build_keys``, ``eve_information``,
``eve_guess_accuracy`` and :func:`detection_probability` compute them.
``SimConfig.workers`` is accepted and echoed but changes nothing.
Estimators report binomial standard errors, except Eve's information,
whose standard error is clustered by round.

The key-rate baseline for the efficiency comparison is the entangled-qubit
protocol in which only 2/9 of detected pairs yield a key bit; at the ideal
1.5 bits per coincidence the ratio is 27/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .hilbert import MEASUREMENT_TABLES, BasisType, Photon, basis_labels
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
from .rng import round_uniforms, stream_uniforms

#: Key bits per detected pair in the three-bases entangled-qubit baseline.
EKERT_BITS_PER_PAIR = 2.0 / 9.0

# Stream tag for the verification sampler, distinct from every round id.
_VERIFY_STREAM = 0x7665726966790001


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
        """Raise ConfigurationError listing every violated field."""
        problems = []
        if not isinstance(self.rounds, int) or self.rounds < 1:
            problems.append(f"rounds must be an integer >= 1, got {self.rounds!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            problems.append(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.efficiency <= 1.0:
            problems.append(f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if not 0.0 <= self.verify_fraction < 1.0:
            problems.append(
                f"verify_fraction must be in [0, 1), got {self.verify_fraction!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            problems.append(f"workers must be an integer >= 1, got {self.workers!r}")
        if self.attack is not None and not isinstance(self.attack, AttackConfig):
            problems.append(f"attack must be an AttackConfig or None, got {self.attack!r}")
        if problems:
            raise ConfigurationError("; ".join(problems))


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

    def to_dict(self) -> dict:
        return {
            "same_bases_compared": self.same_bases_compared,
            "same_bases_mismatches": self.same_bases_mismatches,
            "same_bases_rate": self.same_bases_rate,
            "same_bases_se": self.same_bases_se,
            "diff_bases_compared": self.diff_bases_compared,
            "diff_bases_mismatches": self.diff_bases_mismatches,
            "diff_bases_rate": self.diff_bases_rate,
            "diff_bases_se": self.diff_bases_se,
        }


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

    def to_dict(self) -> dict:
        """Flat-ish dict with a fixed field order, for serialization."""
        return {
            "rounds": self.rounds,
            "coincidences": self.coincidences,
            "coincidence_rate": self.coincidence_rate,
            "coincidence_rate_se": self.coincidence_rate_se,
            "same_basis_count": self.same_basis_count,
            "diff_basis_count": self.diff_basis_count,
            "discarded_count": self.discarded_count,
            "bits_per_coincidence": self.bits_per_coincidence,
            "bits_per_coincidence_se": self.bits_per_coincidence_se,
            "ekert_ratio": self.ekert_ratio,
            "ekert_ratio_se": self.ekert_ratio_se,
            "same_basis_compared": self.same_basis_compared,
            "same_basis_mismatches": self.same_basis_mismatches,
            "same_basis_mismatch_rate": self.same_basis_mismatch_rate,
            "same_basis_mismatch_se": self.same_basis_mismatch_se,
            "key_length": self.key_length,
            "key_bit_error_rate": self.key_bit_error_rate,
            "key_bit_error_se": self.key_bit_error_se,
            "verification": {
                "compared_rounds": self.verification.compared_rounds,
                "mismatches": self.verification.mismatches,
                "mismatch_rate": self.verification.mismatch_rate,
            },
            "eve_information": self.eve_information,
            "eve_information_se": self.eve_information_se,
            "eve_guess_accuracy": self.eve_guess_accuracy,
            "detection": self.detection.to_dict() if self.detection else None,
        }


# Rounds per block of the columnar engine: large enough that numpy's per-call
# overhead is small, small enough that a block's draws stay a few megabytes.
_BLOCK_ROUNDS = 65_536

# Basis codes index _BASES; label codes are 4 * basis code + index in basis.
_BASES = tuple(BasisType)
_LABELS = tuple(lab for basis in _BASES for lab in basis_labels(basis))
_TWO_BITS = np.array([encode_same_basis(lab) for lab in _LABELS], dtype=np.uint8)
_ONE_BIT = np.array([encode_diff_basis(lab) for lab in _LABELS], dtype=np.uint8)
# Per (Eve's photon-2 label code, receiver's basis code): whether she knows
# the receiver's outcome, and her guess score for a same-basis round's first
# and second bit and for a different-basis round's bit.
_EVE_KNOWS = np.array([[knows_outcome(lab, b) for b in _BASES] for lab in _LABELS])
_EVE_GUESS = np.array(
    [
        [[guess_score(lab, b, tag, pos) for tag, pos in ((SAME, 0), (SAME, 1), (DIFF, 0))]
         for b in _BASES]
        for lab in _LABELS
    ]
)


@dataclass(frozen=True, eq=False)
class _Rounds:
    """A batch's rounds as columns indexed by round id.

    Bases are basis codes and labels indices within the basis (int8); the
    Eve columns have one row per photon she measured, in measurement order,
    and are None without an attack.
    """

    alice_basis: np.ndarray
    bob_basis: np.ndarray
    alice_label: np.ndarray
    bob_label: np.ndarray
    alice_detected: np.ndarray
    bob_detected: np.ndarray
    eve_basis: Optional[np.ndarray]
    eve_label: Optional[np.ndarray]

    def records(self) -> tuple[RoundRecord, ...]:
        """The rounds as the RoundRecords that ``run_round`` returns."""
        cols = [
            c.tolist()
            for c in (self.alice_basis, self.bob_basis, self.alice_label,
                      self.bob_label, self.alice_detected, self.bob_detected)
        ]
        if self.eve_basis is None:
            traces = [None] * len(cols[0])
        else:
            traces = [
                EveRecord(
                    rid,
                    tuple(_BASES[b] for b in bases),
                    tuple(_LABELS[4 * b + lab] for b, lab in zip(bases, labels)),
                )
                for rid, (bases, labels) in enumerate(
                    zip(self.eve_basis.T.tolist(), self.eve_label.T.tolist())
                )
            ]
        return tuple(
            RoundRecord(
                round_id=rid,
                alice_basis=_BASES[ab],
                bob_basis=_BASES[bb],
                alice_outcome=_LABELS[4 * ab + al] if ad else None,
                bob_outcome=_LABELS[4 * bb + bl] if bd else None,
                alice_detected=ad,
                bob_detected=bd,
                eve_trace=trace,
            )
            for rid, (ab, bb, al, bl, ad, bd, trace) in enumerate(zip(*cols, traces))
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


def _detection_stats(compared: list[int], mismatched: list[int]) -> DetectionStats:
    rates = [
        (mismatched[s] / compared[s]) if compared[s] else None for s in (0, 1)
    ]
    ses = [
        _binomial_se(rates[s], compared[s]) if compared[s] else None for s in (0, 1)
    ]
    return DetectionStats(
        same_bases_compared=compared[0],
        same_bases_mismatches=mismatched[0],
        same_bases_rate=rates[0],
        same_bases_se=ses[0],
        diff_bases_compared=compared[1],
        diff_bases_mismatches=mismatched[1],
        diff_bases_rate=rates[1],
        diff_bases_se=ses[1],
    )


def detection_probability(
    records: Iterable[RoundRecord], traces: Optional[Iterable[EveRecord]] = None
) -> DetectionStats:
    """Stratified same-basis mismatch rates for a double-intercept batch.

    Compares all coincident same-basis rounds, split by whether Eve used
    equal or different bases on the two photons. Traces default to the ones
    embedded in the records; passing them separately re-aligns by round id.
    Raises ValueError if any compared round lacks a two-basis trace.
    """
    traces_by_id = None
    if traces is not None:
        traces_by_id = {}
        for trace in traces:
            if trace.round_id in traces_by_id:
                raise ValueError(f"duplicate trace for round {trace.round_id}")
            traces_by_id[trace.round_id] = trace
    compared = [0, 0]
    mismatched = [0, 0]
    for rec in records:
        if not rec.coincident or not rec.same_basis:
            continue
        trace = rec.eve_trace if traces_by_id is None else traces_by_id.get(rec.round_id)
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


def _simulate(config: SimConfig) -> _Rounds:
    """Every round of the batch, block by block, in run_round's draw order."""
    n = config.rounds
    attack = config.attack
    eve_photons = 0
    if attack is not None:
        eve_photons = 1 if attack.kind is AttackKind.SINGLE_INTERCEPT else 2
    eve_random = attack is not None and attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND
    draws = (eve_photons if eve_random else 0) + eve_photons + 6
    cols = _Rounds(
        *(np.empty(n, dtype=np.int8) for _ in range(4)),
        *(np.empty(n, dtype=bool) for _ in range(2)),
        *(np.empty((eve_photons, n), dtype=np.int8) if eve_photons else None
          for _ in range(2)),
    )
    tables = MEASUREMENT_TABLES
    for lo in range(0, n, _BLOCK_ROUNDS):
        hi = min(lo + _BLOCK_ROUNDS, n)
        u = iter(round_uniforms(config.seed, np.arange(lo, hi, dtype=np.uint64), draws))
        state = np.zeros(hi - lo, dtype=np.int32)
        # A basis draw below 1/2 picks type-I (code 0), as in choose_basis.
        if eve_photons:
            if eve_random:
                for k in range(eve_photons):
                    cols.eve_basis[k, lo:hi] = next(u) >= 0.5
            else:
                # Fixed strategies take no draw, so there is no stream to pass.
                fixed = [_BASES.index(b) for b in attack.bases_for_round(None)]
                cols.eve_basis[:, lo:hi] = np.array(fixed)[:, None]
            photons = (Photon.TWO,) if eve_photons == 1 else (Photon.ONE, Photon.TWO)
            for k, photon in enumerate(photons):
                cols.eve_label[k, lo:hi], state = tables.measure(
                    state, photon, cols.eve_basis[k, lo:hi], next(u)
                )
        a_basis = cols.alice_basis[lo:hi]
        b_basis = cols.bob_basis[lo:hi]
        a_basis[:] = next(u) >= 0.5
        b_basis[:] = next(u) >= 0.5
        cols.alice_label[lo:hi], state = tables.measure(state, Photon.ONE, a_basis, next(u))
        cols.bob_label[lo:hi], _ = tables.measure(state, Photon.TWO, b_basis, next(u))
        cols.alice_detected[lo:hi] = next(u) < config.efficiency
        cols.bob_detected[lo:hi] = next(u) < config.efficiency
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
    mismatches = int(np.count_nonzero(rounds.alice_label[chosen] != rounds.bob_label[chosen]))
    return VerificationReport(k, mismatches, mismatches / k), chosen


def _key_bits(
    basis: np.ndarray, label: np.ndarray, key_ids: np.ndarray,
    key_same: np.ndarray, bit_mask: np.ndarray,
) -> np.ndarray:
    """One party's key bits, as ``build_keys`` encodes them."""
    codes = 4 * basis[key_ids].astype(np.intp) + label[key_ids]
    per_round = np.where(key_same[:, None], _TWO_BITS[codes], _ONE_BIT[codes][:, None])
    return per_round[bit_mask]


def eve_information_se(
    information: float, known: np.ndarray, widths: np.ndarray, key_len: int
) -> float:
    """Standard error of Eve's information, clustered by round.

    Eve knows both bits of a same-basis round or neither, so the key bits
    are not independent. With ``known`` her per-round knowledge, ``widths``
    each round's key bits b_r and k_r = b_r if known else 0, this is the
    ratio estimator's sqrt(sum_r (k_r - information * b_r)**2) / key_len.
    """
    resid = widths * (known - information)
    return math.sqrt(float(np.dot(resid, resid))) / key_len


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
    same = coincident & (rounds.alice_basis == rounds.bob_basis)
    same_ids = np.flatnonzero(same)
    verification, consumed = _verify(config, rounds, same_ids)

    in_key = coincident.copy()
    in_key[consumed] = False
    key_ids = np.flatnonzero(in_key)
    key_same = same[key_ids]
    # Row r of an (rounds in key, 2) array holds round r's bits: both for a
    # same-basis round, the first only otherwise; the mask flattens in order.
    bit_mask = np.ones((len(key_ids), 2), dtype=bool)
    bit_mask[:, 1] = key_same
    alice_bits = _key_bits(rounds.alice_basis, rounds.alice_label, key_ids, key_same, bit_mask)
    bob_bits = _key_bits(rounds.bob_basis, rounds.bob_label, key_ids, key_same, bit_mask)
    bit_rounds = np.broadcast_to(key_ids[:, None], bit_mask.shape)[bit_mask]
    bit_same = np.broadcast_to(key_same[:, None], bit_mask.shape)[bit_mask]

    coincidences = int(np.count_nonzero(coincident))
    same_n = len(same_ids)
    same_mismatch = rounds.alice_label[same_ids] != rounds.bob_label[same_ids]
    key_len = len(alice_bits)
    key_errors = int(np.count_nonzero(alice_bits != bob_bits))

    info = info_se = accuracy = detection = None
    if config.attack is not None:
        info = accuracy = 0.0
        # Eve's photon-2 outcome decides what she knows of Bob's key.
        eve_codes = 4 * rounds.eve_basis[-1].astype(np.int16) + rounds.eve_label[-1]
        if key_len:
            known = _EVE_KNOWS[eve_codes[key_ids], rounds.bob_basis[key_ids]]
            widths = 1 + key_same.astype(np.int64)
            info = int(np.dot(widths, known)) / key_len
            info_se = eve_information_se(info, known, widths, key_len)
            # Flat index into _EVE_GUESS of each key bit's score.
            base = 3 * (2 * eve_codes[key_ids] + rounds.bob_basis[key_ids])
            kind = np.where(key_same[:, None], np.int16([0, 1]), np.int16(2))
            scores = _EVE_GUESS.ravel()[(base[:, None] + kind)[bit_mask]]
            # Summed left to right, as eve_guess_accuracy does: the scores
            # are not all exact, so the order decides the last bit.
            accuracy = float(np.add.accumulate(scores, out=scores)[-1]) / key_len
        if config.attack.kind is AttackKind.DOUBLE_INTERCEPT:
            equal = rounds.eve_basis[0, same_ids] == rounds.eve_basis[1, same_ids]
            detection = _detection_stats(
                [int(np.count_nonzero(equal)), int(np.count_nonzero(~equal))],
                [int(np.count_nonzero(same_mismatch & equal)),
                 int(np.count_nonzero(same_mismatch & ~equal))],
            )

    stats = _batch_stats(
        config,
        coincidences=coincidences,
        same_n=same_n,
        mismatches=int(np.count_nonzero(same_mismatch)),
        verification=verification,
        key_len=key_len,
        key_errors=key_errors,
        eve_information=info,
        eve_information_se=info_se,
        eve_guess_accuracy=accuracy,
        detection=detection,
    )
    alice_key = KeyBits.from_arrays(alice_bits, bit_rounds, bit_same)
    bob_key = KeyBits.from_arrays(bob_bits, bit_rounds, bit_same)
    return BatchResult(stats=stats, alice_key=alice_key, bob_key=bob_key, _rounds=rounds)


def _batch_stats(
    config: SimConfig,
    *,
    coincidences: int,
    same_n: int,
    mismatches: int,
    verification: VerificationReport,
    key_len: int,
    key_errors: int,
    eve_information: Optional[float],
    eve_information_se: Optional[float],
    eve_guess_accuracy: Optional[float],
    detection: Optional[DetectionStats],
) -> BatchStats:
    """Assemble the estimators from a batch's counts and Eve's estimates."""
    diff_n = coincidences - same_n
    coincidence_rate = coincidences / config.rounds
    coincidence_se = _binomial_se(coincidence_rate, config.rounds)

    if coincidences:
        bpc = (2 * same_n + diff_n) / coincidences
        # bits/coincidence = 1 + (same-basis fraction), so its SE is that
        # fraction's binomial SE.
        bpc_se = _binomial_se(same_n / coincidences, coincidences)
        ratio = ekert_ratio(bpc)
        ratio_se = bpc_se / EKERT_BITS_PER_PAIR
    else:
        bpc = bpc_se = ratio = ratio_se = None

    if same_n:
        mism_rate = mismatches / same_n
        mism_se = _binomial_se(mism_rate, same_n)
    else:
        mism_rate = mism_se = None

    if key_len:
        key_err = key_errors / key_len
        key_err_se = _binomial_se(key_err, key_len)
    else:
        key_err = key_err_se = None

    return BatchStats(
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
        eve_information=eve_information,
        eve_information_se=eve_information_se,
        eve_guess_accuracy=eve_guess_accuracy,
        detection=detection,
    )
