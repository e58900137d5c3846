"""Batch simulation driver and the estimators for the protocol's headline numbers.

A batch runs independent rounds, each a pure function of the master seed
and its round id, so results are bit-identical for a given configuration.
:func:`hyperqkd.rng.draw_blocks` draws them in blocks of 16 384 rounds, in
the stream layout of :mod:`hyperqkd.rng`, and gives each round's pattern,
the top bits (at most 12) of its decision word, and both detections. A
pattern is the index of one column of the attack shape's round table
(:func:`_round_table`), which holds every label code of the round, Eve's
included, and is built once per shape from the closed state set's fixed
tables in :mod:`hyperqkd.hilbert`. From it, per-pattern tables
(:func:`_patterns`) say what a coincident round of each pattern gives:
both parties' packed key row (:func:`hyperqkd.protocol.key_rows`), and one
int64 matrix of what it adds to each counter: same bases, a same-basis
mismatch, the differing key bits, Eve's tallies
(:func:`hyperqkd.adversary.eve_tallies`) and the detection strata
(:func:`_strata`).

A batch's passes each work in buffers of one block, allocated once and
reused for every block:

* :func:`coincident_patterns` keeps the coincident rounds' patterns, as
  uint16, and their histogram. Every counter of the batch is the matrix
  times a histogram of patterns. It also gives the block table: before
  each draw block and after the last, how many coincident rounds and
  coincident same-basis rounds the batch has kept.
* :func:`hyperqkd.protocol.partial_shuffle` (which ``verify_sample`` also
  calls) picks the checked rounds by their rank among the coincident
  same-basis rounds. With the sorted picks, the table alone says where
  each block's patterns, picks, key rounds and key bits lie
  (:func:`_block_slices`), so no pass carries anything from one block to
  the next.
* :func:`_block_keys` keys one block: it gathers its patterns' packed key
  rows, finds its checked rounds among the same-basis ones
  (:func:`hyperqkd.protocol.same_basis`) and gives their rows the
  fillers. :func:`extract_keys` calls it on each block's slice of the
  held patterns and copies the rows' key bits
  (:func:`hyperqkd.protocol.key_bits`), Bob's only when a key bit can
  differ, and the checked rounds' patterns, whose histogram times the
  matrix is what they took from the counters.
* Only when they are first asked for, :func:`key_rounds` derives which
  rounds the key holds, calling :func:`_block_keys` on each block drawn
  again, and :func:`_block_records` builds the records, exactly those the
  scalar reference :func:`hyperqkd.protocol.run_round` gives, each from
  the rounds drawn again.

So a batch holds its coincident patterns only while it runs, and keeps
only its results: the keys' bits, the picks and the block table. Alice's
key derives its rounds' ids and same-basis flags on first access; Bob's
holds the same rounds (:meth:`KeyBits.with_bits`), derived once for both
keys, and is Alice's key itself when no key bit differs. At a
``verify_fraction`` of 0 no round is compared and every coincidence stays
in the key.

The scalar ``build_keys``, ``eve_information``, ``eve_guess_accuracy`` and
:func:`detection_probability` gather label codes from round records (what
Eve saw from each record's ``eve_trace``) and call the same kernels,
summing the tallies over the records. Eve's guess accuracy is an integer
count of quarters divided once by 4 * key length. Estimators report
binomial standard errors, except Eve's information, whose standard error
is clustered by round.

The key-rate baseline for the efficiency comparison is the entangled-qubit
protocol in which only 2/9 of detected pairs yield a key bit; at the ideal
1.5 bits per coincidence the ratio is 27/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# run_round, sift, verify_sample, build_keys and the two Eve estimators are
# not used here; they stay importable from this module by name only because
# perfbench/spans.py traces the scalar stages under these names.
from .adversary import (  # noqa: F401
    AttackConfig,
    AttackKind,
    EveBasisStrategy,
    EveRecord,
    eve_guess_accuracy,
    eve_information,
    eve_tallies,
)
from .errors import ConfigurationError
from .hilbert import BASES, LABELS, OUTCOME_LABEL, OUTCOME_POST, SHARED_ID, Photon, outcome_slots
from .protocol import (  # noqa: F401
    FILLER_ROW,
    KeyBits,
    RoundRecord,
    VerificationReport,
    build_keys,
    key_bits,
    key_errors,
    key_rows,
    partial_shuffle,
    run_round,
    same_basis,
    sift,
    valid_efficiency,
    valid_fraction,
    verify_sample,
)
from .rng import DECISION_BITS, DRAWS_PER_ROUND, DecisionWord, draw_blocks, stream_uniforms

#: Key bits per detected pair in the three-bases entangled-qubit baseline.
EKERT_BITS_PER_PAIR = 2.0 / 9.0

# Stream tag for the verification sampler. Its stream is seeded apart from
# the rounds' batch stream, so its k draws overlap the 3 * rounds round
# states only if its seed lands within about 3 * rounds + k steps of the
# batch stream's: with probability about 3 * rounds / 2**64 for a batch.
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
        The efficiency's and the verification fraction's ranges are
        :func:`valid_efficiency` and :func:`valid_fraction`, which the
        scalar ``run_round`` and ``verify_sample`` test too.
        """
        problems = {}
        if not _is_int(self.rounds) or self.rounds < 1:
            problems["rounds"] = f"must be an integer >= 1, got {self.rounds!r}"
        elif DRAWS_PER_ROUND * self.rounds >= 2**64:
            # Beyond this, two draws of the batch stream share a state (rng).
            problems["rounds"] = f"must be below 2**64 / {DRAWS_PER_ROUND}, got {self.rounds!r}"
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            problems["seed"] = f"must be a 64-bit unsigned integer, got {self.seed!r}"
        if not valid_efficiency(self.efficiency):
            problems["efficiency"] = f"must be in (0, 1], got {self.efficiency!r}"
        if not valid_fraction(self.verify_fraction):
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


# Rounds per block of the columnar engine. A larger block pays numpy's
# per-call overhead less often, but its temporaries are the batch's working
# memory. In a sweep of run_batch at 10**5 rounds on 2 vCPUs, 16 384 took 4 %
# less time than 8 192 and 5 % more than 32 768, which would double a
# 10**5-round call's transient memory; at 16 384 it is about 0.2 MB beyond
# the result, under tracemalloc.
_BLOCK_ROUNDS = 16_384


def _block_records(
    attack: Optional[AttackConfig], lo: int, pattern: np.ndarray,
    alice: Optional[np.ndarray], bob: Optional[np.ndarray],
) -> list[RoundRecord]:
    """One block's rounds as the RoundRecords that ``run_round`` returns,
    from the id of its first round, each round's pattern (the column of
    ``attack``'s round table, :func:`_round_table`, that fixes every label
    code of the round, Eve's included) and Alice's and Bob's detections
    (bool), None where every round of the block was detected. A party's
    outcome is measured whether or not it is detected."""
    labels = _round_table(attack).take(pattern, axis=1)
    # One int per round id, which the round's record and trace share.
    ids = list(range(lo, lo + len(pattern)))
    alice_codes, bob_codes = labels[-2:].tolist()
    detected = [[True] * len(ids) if d is None else d.tolist() for d in (alice, bob)]
    if attack is None:
        traces = [None] * len(ids)
    else:
        traces = [
            EveRecord(rid, tuple(BASES[c >> 2] for c in codes),
                      tuple(LABELS[c] for c in codes))
            for rid, codes in zip(ids, labels[:-2].T.tolist())
        ]
    return [
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
        for rid, a, b, ad, bd, trace in zip(ids, alice_codes, bob_codes, *detected, traces)
    ]


def _batch_records(draws: tuple, attack: Optional[AttackConfig]) -> tuple[RoundRecord, ...]:
    """The records of the batch whose rounds are ``draw_blocks(*draws)``
    under ``attack``, from its rounds drawn again. Each block becomes
    records before the next block is drawn over it."""
    return tuple(chain.from_iterable(
        _block_records(attack, *block) for block in draw_blocks(*draws)))


@dataclass(frozen=True)
class BatchResult:
    """Everything a batch produced: estimators, raw rounds, and both keys."""

    stats: BatchStats
    alice_key: KeyBits
    bob_key: KeyBits
    _records: Callable[[], tuple[RoundRecord, ...]] = field(repr=False, compare=False)

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """Every round's RoundRecord in round order, built on first access
        from the rounds drawn again."""
        return self._records()


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


def _strata(equal: np.ndarray, mismatch: np.ndarray) -> np.ndarray:
    """The detection strata of compared rounds, one bool row each, from
    whether Eve's two bases were equal and whether the parties' outcomes
    differ in each: equal bases, and equal bases and a mismatch. The rounds
    of different bases are the rest (see :func:`_detection`)."""
    return np.array([equal, mismatch & equal])


def _detection(compared: int, mismatches: int, strata: Sequence[int]) -> DetectionStats:
    """The detection stats from the number of compared rounds, their
    mismatches and their count in each of the two :func:`_strata`; every
    other compared round had Eve's bases different."""
    same_n, same_m = (int(n) for n in strata)
    diff_n, diff_m = int(compared) - same_n, int(mismatches) - same_m
    return DetectionStats(same_n, same_m, *_rate(same_m, same_n),
                          diff_n, diff_m, *_rate(diff_m, diff_n))


def detection_probability(records: Iterable[RoundRecord]) -> DetectionStats:
    """Stratified same-basis mismatch rates for a double-intercept batch.

    Compares all coincident same-basis rounds, split by whether Eve used
    equal or different bases on the two photons, as each round's
    ``eve_trace`` records them. Raises ValueError if any compared round
    lacks a two-basis trace.
    """
    equal = []
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
        equal.append(trace.bases[0] is trace.bases[1])
        mismatch.append(rec.alice_outcome is not rec.bob_outcome)
    mismatch = np.array(mismatch, dtype=bool)
    return _detection(len(equal), np.count_nonzero(mismatch),
                      _strata(np.array(equal, dtype=bool), mismatch).sum(axis=1))


@cache
def _round_table(attack: Optional[AttackConfig]) -> np.ndarray:
    """Every round of ``attack``'s shape as one table of label codes.

    Column ``p`` is the round whose decision word starts with the bits of
    ``p``, as many bits as the round's decisions read (one for a basis, two
    for a measurement). Its rows are Eve's codes in measurement order, then
    Alice's and Bob's. The table is built once per attack: a
    :class:`DecisionWord` over every pattern of :data:`DECISION_BITS` bits
    hands each decision its bits in ``run_round``'s order, the closed set's
    measurement chain (``outcome_slots``, ``OUTCOME_LABEL`` and
    ``OUTCOME_POST``) runs on them, and of the patterns that agree in the
    bits read, the first is kept.
    """
    word = DecisionWord(np.arange(1 << DECISION_BITS, dtype=np.uint64) << 64 - DECISION_BITS)
    state, codes = SHARED_ID, []

    def bits(width):
        return word.bits(width).astype(np.int8)

    def measure(photons, bases):
        nonlocal state
        for photon, basis in zip(photons, bases):
            slots = outcome_slots(state, photon, basis, bits(2))
            codes.append(OUTCOME_LABEL.take(slots) + 4 * basis)
            state = OUTCOME_POST.take(slots)

    if attack is not None:
        single = attack.kind is AttackKind.SINGLE_INTERCEPT
        photons = (Photon.TWO,) if single else (Photon.ONE, Photon.TWO)
        if attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
            bases = [bits(1) for _ in photons]
        else:
            # Fixed strategies read no bits, so there is no stream to pass.
            bases = [BASES.index(b) for b in attack.bases_for_round(None)]
        measure(photons, bases)
    measure((Photon.ONE, Photon.TWO), [bits(1) for _ in range(2)])
    step = 1 << DECISION_BITS - word.bits_read
    table = np.array([row[::step] for row in codes], dtype=np.int8)
    table.flags.writeable = False
    return table


# Rows of _Patterns.counters: same bases; same bases and a mismatch; key
# bit errors; Eve's three tallies (eve_tallies); and a same-basis round's
# two detection strata (_strata).
_SAME, _SAME_MISMATCH, _KEY_ERRORS = range(3)
_EVE = slice(3, 6)
_STRATA = slice(6, 8)


@dataclass(frozen=True)
class _Patterns:
    """What each round pattern of one attack shape (a column of its round
    table) gives when the round is coincident: both parties' packed key-bit
    row (:func:`key_rows`), and how much the round adds to each of the
    batch's counters, one int64 row per counter (``_SAME`` to ``_STRATA``;
    Eve's rows are 0 with no attack, the strata unless she intercepts both
    photons)."""

    key_rows: np.ndarray
    counters: np.ndarray


@cache
def _patterns(attack: Optional[AttackConfig]) -> _Patterns:
    """The pattern tables of ``attack``'s shape, built once from its round
    table, :func:`key_rows`, :func:`key_errors`, :func:`eve_tallies` and
    :func:`_strata`."""
    table = _round_table(attack)
    alice, bob = table[-2:]
    same = (alice >> 2) == (bob >> 2)
    mismatch = alice != bob
    rows = key_rows(alice, bob, same)
    counters = np.zeros((_STRATA.stop, table.shape[1]), dtype=np.int64)
    counters[_SAME] = same
    counters[_SAME_MISMATCH] = same & mismatch
    counters[_KEY_ERRORS] = key_errors(rows)
    if attack is not None:
        # Eve's photon-2 outcome decides what she knows of Bob's key.
        counters[_EVE] = eve_tallies(table[-3], bob >> 2, same)
        if attack.kind is AttackKind.DOUBLE_INTERCEPT:
            counters[_STRATA] = _strata((table[0] >> 2) == (table[1] >> 2), mismatch) & same
    rows.flags.writeable = counters.flags.writeable = False
    return _Patterns(key_rows=rows, counters=counters)


def coincident_patterns(
    seed: int, rounds: int, efficiency: float, bits: int, block: int, same: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coincident rounds' patterns (uint16), in round order, their
    histogram (int64, one bin per pattern) and the batch's block table,
    from :func:`draw_blocks`' blocks of the same arguments but ``same``,
    which flags each pattern's same-basis rounds (int64). Column ``b`` of
    the table (int64) counts the coincident rounds and the coincident
    same-basis rounds before block ``b``; its last column counts the
    batch's. Below efficiency 1 each block's patterns are compressed once,
    on both detections; at efficiency 1 every round is coincident.
    MemoryError if the patterns might not fit in one array.
    """
    if 2 * rounds > np.iinfo(np.intp).max:
        # numpy refuses an array this large with ValueError.
        raise MemoryError(f"{rounds} patterns do not fit in one array")
    patterns = np.empty(rounds, dtype=np.uint16)
    counts = np.zeros(1 << bits, dtype=np.int64)
    table = np.zeros((2, (rounds + block - 1) // block + 1), dtype=np.int64)
    for b, (_, pattern, alice, bob) in enumerate(
            draw_blocks(seed, rounds, efficiency, bits, block)):
        if alice is not None:
            pattern = np.compress(np.logical_and(alice, bob, out=alice), pattern)
        kept = table[0, b]
        patterns[kept:kept + len(pattern)] = pattern
        # Viewed as int64, numpy's index type, no index array is converted.
        counts += np.bincount(pattern.view(np.int64), minlength=1 << bits)
        table[:, b + 1] = kept + len(pattern), same @ counts
    return patterns[:table[0, -1]], counts, table


def _block_slices(table: np.ndarray, picks: np.ndarray) -> list[tuple]:
    """Where each draw block's share of the batch lies, found from the
    block table (:func:`coincident_patterns`) and the sorted picks alone:
    slices of the coincident rounds, of the picks, of the key rounds and
    of the key bits, and the rank of the block's first same-basis round,
    which its picks count from. A checked round is a same-basis round, of
    two bits, and gives no key round."""
    coincident, ranked = table.tolist()
    done = np.searchsorted(picks, table[1]).tolist()
    starts = [(c, d, c - d, c + r - 2 * d) for c, r, d in zip(coincident, ranked, done)]
    return [(*map(slice, lo, hi), r) for lo, hi, r in zip(starts, starts[1:], ranked)]


def _block_keys(pattern: np.ndarray, picks: np.ndarray, key_rows: np.ndarray,
                out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """One block's packed key rows, gathered from ``key_rows`` by the
    block's coincident rounds' ``pattern`` (into ``out``, if given), with
    the checked rounds' rows set to ``FILLER_ROW``, and the checked rounds'
    positions in the block. ``picks`` ranks them among the block's
    same-basis rounds."""
    # Every pattern indexes key_rows, so clipping changes no index, and
    # unlike the default it writes the rows straight into ``out``.
    rows = key_rows.take(pattern, out=out, mode="clip")
    hit = np.flatnonzero(same_basis(rows))[picks]
    rows[hit] = FILLER_ROW
    return rows, hit


def extract_keys(
    patterns: np.ndarray, picks: np.ndarray, table: np.ndarray, key_rows: np.ndarray,
    both: bool,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The key of a batch, from its coincident rounds' ``patterns`` and its
    block table (:func:`coincident_patterns`): Alice's key bits, Bob's
    (None unless ``both``) and the checked rounds' patterns (intp), in
    round order.

    ``picks`` ranks the checked rounds among the coincident same-basis
    rounds, ascending; every other coincident round is a key round.
    ``key_rows`` holds each pattern's packed key row. Each draw block's
    slice of the patterns is keyed by :func:`_block_keys` into one buffer
    and copied to where the table puts it (:func:`_block_slices`) in
    arrays allocated once. Which rounds the key holds is
    :func:`key_rounds`.
    """
    # Each checked round is a same-basis round, of two bits.
    width = int(table[:, -1].sum()) - 2 * len(picks)
    alice = np.empty(width, dtype=np.uint8)
    bob = np.empty(width, dtype=np.uint8) if both else None
    checked = np.empty(len(picks), dtype=np.intp)
    buffer = np.empty(np.diff(table[0]).max(), dtype=np.uint16)
    for rounds, picked, _, bits, ranked in _block_slices(table, picks):
        pattern = patterns[rounds]
        rows, hit = _block_keys(
            pattern, picks[picked] - ranked, key_rows, buffer[:len(pattern)])
        checked[picked] = pattern[hit]
        key_bits(rows, both, out=(alice[bits], bob[bits] if both else None))
    return alice, bob, checked


def key_rounds(
    draws: tuple[int, int, float, int, int], picks: np.ndarray, table: np.ndarray,
    key_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each key round's id (int64) and same-basis flag, in round order, of
    the batch whose rounds are ``draw_blocks(*draws)``, whose block table
    is ``table`` and whose verification took ``picks`` (all three as
    :func:`extract_keys` takes them): the coincident rounds but the checked
    ones. Each block is drawn again and keyed by :func:`_block_keys` into
    arrays allocated once. Both arrays are read-only, as
    :class:`hyperqkd.protocol.KeyBits` holds them."""
    count = int(table[0, -1]) - len(picks)
    ids = np.empty(count, dtype=np.int64)
    same = np.empty(count, dtype=bool)
    for (lo, pattern, alice, bob), (_, picked, kept, _, ranked) in zip(
            draw_blocks(*draws), _block_slices(table, picks)):
        if alice is None:
            rid = np.arange(lo, lo + len(pattern))
        else:
            rid = np.flatnonzero(np.logical_and(alice, bob, out=alice))
            pattern = pattern.take(rid)
            rid += lo
        rows, hit = _block_keys(pattern, picks[picked] - ranked, key_rows)
        ids[kept] = np.delete(rid, hit)
        same[kept] = np.delete(same_basis(rows), hit)
    ids.flags.writeable = same.flags.writeable = False
    return ids, same


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
    tables = _patterns(config.attack)
    # A pattern of b bits is one of the tables' 2**b columns. The draws are
    # draw_blocks' arguments, from which the records and the keys' rounds
    # draw the batch again.
    draws = (config.seed, config.rounds, config.efficiency,
             len(tables.key_rows).bit_length() - 1, _BLOCK_ROUNDS)
    patterns, coincident, table = coincident_patterns(*draws, tables.counters[_SAME])
    # Every counter is a histogram of patterns dotted with a row of
    # tables.counters.
    totals = tables.counters @ coincident
    coincidences, same_n = table[:, -1].tolist()
    k = math.ceil(config.verify_fraction * same_n)
    picks = np.sort(partial_shuffle(same_n, stream_uniforms(config.seed, _VERIFY_STREAM, k)))
    # Bob's bits can differ from Alice's only if some coincident round's can.
    alice_bits, bob_bits, checked = extract_keys(
        patterns, picks, table, tables.key_rows, bool(totals[_KEY_ERRORS]))
    key_len = len(alice_bits)
    removed = tables.counters @ np.bincount(checked, minlength=len(tables.key_rows))
    keyed = (totals - removed).tolist()
    mismatches = int(totals[_SAME_MISMATCH])
    checked_mismatches = int(removed[_SAME_MISMATCH])
    verification = VerificationReport(k, checked_mismatches, _rate(checked_mismatches, k)[0])

    info = info_se = accuracy = detection = None
    if config.attack is not None:
        if key_len:
            known_rounds, known_same, quarters = keyed[_EVE]
            info = (known_rounds + known_same) / key_len
            # A same-basis round weighs 2 bits (4 squared), any other 1.
            info_se = eve_information_se(known_rounds + known_same, known_rounds + 3 * known_same,
                                         key_len + 2 * (same_n - k), key_len)
            accuracy = quarters / (4 * key_len)
        if config.attack.kind is AttackKind.DOUBLE_INTERCEPT:
            detection = _detection(same_n, mismatches, totals[_STRATA])

    bpc = bpc_se = ratio = ratio_se = None
    if coincidences:
        # A same-basis round gives two bits, any other coincidence one.
        bpc = (coincidences + same_n) / coincidences
        # bits/coincidence = 1 + (same-basis fraction), so its SE is that
        # fraction's binomial SE.
        bpc_se = _binomial_se(same_n / coincidences, coincidences)
        ratio = ekert_ratio(bpc)
        ratio_se = bpc_se / EKERT_BITS_PER_PAIR
    coincidence_rate, coincidence_se = _rate(coincidences, config.rounds)
    mism_rate, mism_se = _rate(mismatches, same_n)
    key_err, key_err_se = _rate(keyed[_KEY_ERRORS], key_len)
    stats = BatchStats(
        rounds=config.rounds,
        coincidences=coincidences,
        coincidence_rate=coincidence_rate,
        coincidence_rate_se=coincidence_se,
        same_basis_count=same_n,
        diff_basis_count=coincidences - same_n,
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
    # Both keys derive their rounds from the draws, the table and the
    # picks, once.
    alice_key = KeyBits._of_batch(
        alice_bits, key_len,
        cache(partial(key_rounds, draws, picks, table, tables.key_rows)))
    # With no bit error, Bob holds Alice's key.
    bob_key = alice_key.with_bits(bob_bits) if keyed[_KEY_ERRORS] else alice_key
    return BatchResult(stats=stats, alice_key=alice_key, bob_key=bob_key,
                       _records=partial(_batch_records, draws, config.attack))
