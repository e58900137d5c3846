"""Intercept-resend eavesdropping models and Eve's information estimators.

Two attacks are modeled, both applied on the channel after pair creation
and before either legitimate measurement:

* single intercept: Eve Bell-measures photon 2 in one of the two
  complementary bases and forwards the eigenstate she observed to Bob;
  photon 1 is left with its (collapsed) conditional state.
* double intercept: Eve Bell-measures both photons, each in a basis given
  by her strategy, and forwards the two observed eigenstates.

Eve resends exactly the eigenstate she measured; she records only her own
basis choices and outcomes.

Her knowledge of the receiver's key comes from the Born law of the state she
resent, read as exact quarters from :func:`hyperqkd.hilbert.overlap_quarters`
(each Bell state overlaps two states of the other basis, a half each), so
:func:`knows_outcome` is an exact test and every :func:`guess_score` an exact
multiple of 1/4. Both estimators take the round records and the receiver's
key, read what Eve saw in each key round
(:attr:`hyperqkd.protocol.KeyBits.rounds`) from its record
(:attr:`hyperqkd.protocol.RoundRecord.eve_trace`, None when she did not
touch it) and gather her photon-2 label codes and the receiver's basis codes
for :func:`eve_tallies`, the kernel the batch engine runs once per attack
shape on its round patterns, and sum its tallies over the key rounds. A
same-basis round carries two key bits and any other round one. Both are
None for an empty key.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigurationError
from .hilbert import (
    BASES,
    LABELS,
    BasisType,
    BellLabel,
    Photon,
    basis_labels,
    measure_party,
    overlap_quarters,
)
from .protocol import (
    DIFF,
    SAME,
    KeyBits,
    RoundRecord,
    choose_basis,
    encode_diff_basis,
    encode_same_basis,
)
from .rng import DecisionWord, RandomSource


class AttackKind(Enum):
    SINGLE_INTERCEPT = "single"
    DOUBLE_INTERCEPT = "double"


class EveBasisStrategy(Enum):
    """How Eve picks measurement bases.

    RANDOM_PER_ROUND draws each basis fresh and uniformly (independently per
    photon for the double intercept). The fixed strategies use the
    configured basis for photon 1 every round; FIXED_DIFFERENT gives photon
    2 the complementary basis and only makes sense for the double intercept.
    """

    RANDOM_PER_ROUND = "random"
    FIXED_SAME = "same"
    FIXED_DIFFERENT = "different"


@dataclass(frozen=True, slots=True)
class EveRecord:
    """Eve's bookkeeping for one attacked round: bases used and outcomes seen."""

    round_id: int
    bases: tuple[BasisType, ...]
    outcomes: tuple[BellLabel, ...]

    def __post_init__(self) -> None:
        if len(self.bases) not in (1, 2) or len(self.bases) != len(self.outcomes):
            raise ValueError("EveRecord must hold one or two (basis, outcome) pairs")
        for basis, outcome in zip(self.bases, self.outcomes):
            if outcome.basis is not basis:
                raise ValueError(f"outcome {outcome} does not belong to basis {basis}")


@dataclass(frozen=True)
class AttackConfig:
    """Which intercept-resend attack to run and how Eve chooses bases."""

    kind: AttackKind
    strategy: EveBasisStrategy = EveBasisStrategy.RANDOM_PER_ROUND
    fixed_basis: BasisType = BasisType.TYPE_I

    def __post_init__(self) -> None:
        # Every rule of the attack tests its fields by identity, so a plain
        # value such as "single" would quietly run some other attack.
        enums = {"kind": AttackKind, "strategy": EveBasisStrategy, "fixed_basis": BasisType}
        wrong = [name for name, enum in enums.items() if not isinstance(getattr(self, name), enum)]
        if wrong:
            raise ConfigurationError(
                "; ".join(f"{name} must be a member of {enums[name].__name__}, "
                          f"got {getattr(self, name)!r}" for name in wrong),
                fields=tuple(wrong),
            )
        if (
            self.kind is AttackKind.SINGLE_INTERCEPT
            and self.strategy is EveBasisStrategy.FIXED_DIFFERENT
        ):
            raise ConfigurationError(
                "a single intercept uses one basis per round; "
                "FIXED_DIFFERENT requires the double intercept"
            )

    def bases_for_round(self, rand: RandomSource | DecisionWord) -> tuple[BasisType, ...]:
        """Eve's basis (single) or per-photon bases (double) for one round;
        a random strategy reads one bit of ``rand`` per basis."""
        if self.kind is AttackKind.SINGLE_INTERCEPT:
            if self.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
                return (choose_basis(rand),)
            return (self.fixed_basis,)
        if self.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
            return (choose_basis(rand), choose_basis(rand))
        if self.strategy is EveBasisStrategy.FIXED_SAME:
            return (self.fixed_basis, self.fixed_basis)
        return (self.fixed_basis, self.fixed_basis.other)

    def apply(self, state, round_id: int, rand: RandomSource | DecisionWord):
        """Intercept the in-flight photons; returns (resent state, EveRecord).
        Eve's random bases, then her measurements, read their bits of
        ``rand`` (see :func:`hyperqkd.hilbert.measure_party`)."""
        bases = self.bases_for_round(rand)
        if self.kind is AttackKind.SINGLE_INTERCEPT:
            return eve_single_intercept(state, bases[0], rand, round_id=round_id)
        return eve_double_intercept(state, bases[0], bases[1], rand, round_id=round_id)


def eve_single_intercept(
    state, basis: BasisType, rand: RandomSource | DecisionWord, round_id: int = 0
):
    """Eve measures photon 2 and resends the observed eigenstate to Bob.

    The returned joint state is the conditional photon-1 state tensored
    with the Bell vector Eve observed, which is exactly the projection of
    ``state`` by her measurement.
    """
    res = measure_party(state, Photon.TWO, basis, rand)
    return res.post_state, EveRecord(round_id, (basis,), (res.label,))


def eve_double_intercept(
    state, basis1: BasisType, basis2: BasisType, rand: RandomSource | DecisionWord,
    round_id: int = 0,
):
    """Eve measures photon 1 then photon 2 and resends both eigenstates.

    The returned state is the product of the two observed Bell vectors;
    any entanglement of the input is destroyed. Measurement order does not
    affect the statistics.
    """
    first = measure_party(state, Photon.ONE, basis1, rand)
    second = measure_party(first.post_state, Photon.TWO, basis2, rand)
    return second.post_state, EveRecord(
        round_id, (basis1, basis2), (first.label, second.label)
    )


def _index_records(records: Iterable[RoundRecord]) -> dict[int, RoundRecord]:
    by_id: dict[int, RoundRecord] = {}
    for rec in records:
        if rec.round_id in by_id:
            raise ValueError(f"duplicate record for round {rec.round_id}")
        by_id[rec.round_id] = rec
    return by_id


def knows_outcome(eve_outcome: BellLabel, basis: BasisType) -> bool:
    """Whether the state Eve resent as ``eve_outcome`` has one possible
    outcome when the receiver measures it in ``basis``: some label holds
    all four quarters."""
    return 4 in overlap_quarters(eve_outcome, basis)


def guess_score(
    eve_outcome: Optional[BellLabel], basis: BasisType, tag: str, pos: int
) -> float:
    """Probability that Eve's best guess of one key bit is right.

    ``eve_outcome`` is the photon-2 outcome she resent (None when she did
    not touch the round), ``basis`` the receiver's basis, ``tag`` the key
    group and ``pos`` the bit's position within its round. Her posterior
    over the receiver's outcome is :func:`hyperqkd.hilbert.overlap_quarters`
    (one quarter each when she did not touch the round); with q quarters on
    bit value 1 the score is exactly max(q, 4 - q) / 4.
    """
    quarters = (1, 1, 1, 1) if eve_outcome is None else overlap_quarters(eve_outcome, basis)
    bits = (encode_same_basis(lab)[pos] if tag == SAME else encode_diff_basis(lab)
            for lab in basis_labels(basis))
    q = sum(n * bit for n, bit in zip(quarters, bits))
    return max(q, 4 - q) / 4


# Cell 2 * (Eve's photon-2 label code) + receiver's basis code: whether she
# knows the receiver's outcome; code _UNTOUCHED, one past LABELS, stands for
# a round she did not touch. Entry 2 * cell + (0 for a same-basis round, 1
# otherwise) of _GUESS_QUARTERS: her guess scores for the round's key bits,
# summed, in quarters (each score is an exact number of quarters).
_UNTOUCHED = len(LABELS)
_EVE_KNOWS = np.array([lab is not None and knows_outcome(lab, b)
                       for lab in (*LABELS, None) for b in BASES])
_GUESS_QUARTERS = np.array(
    [int(4 * score) for lab in (*LABELS, None) for b in BASES
     for score in (guess_score(lab, b, SAME, 0) + guess_score(lab, b, SAME, 1),
                   guess_score(lab, b, DIFF, 0))],
    dtype=np.int8,
)


def eve_tallies(
    eve_codes: np.ndarray, basis_codes: np.ndarray, same: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eve's tallies of each key round: whether she knows the receiver's
    outcome (bool), whether it is a same-basis round she knows (bool), and
    her guess scores for its key bits summed in quarters (int8).

    Per row, ``eve_codes`` holds her photon-2 label code (hilbert's LABELS;
    _UNTOUCHED for a round she did not touch), ``basis_codes`` the
    receiver's basis code and ``same`` the same-basis flag.
    """
    cell = 2 * eve_codes + basis_codes
    known = _EVE_KNOWS.take(cell)
    return known, known & same, _GUESS_QUARTERS.take(2 * cell + ~same)


def _key_rounds(records: Iterable[RoundRecord], key: KeyBits) -> tuple[int, ...]:
    """Eve's tallies summed over the rounds of the receiver's ``key``, reading
    what Eve saw in each round from its record.

    Raises ValueError if a key round has no record, or if its same-basis
    flag disagrees with its record's bases."""
    records_by_id = _index_records(records)
    codes = []
    round_ids, same = key.rounds
    for rid, is_same in zip(round_ids.tolist(), same.tolist()):
        rec = records_by_id.get(rid)
        if rec is None:
            raise ValueError(f"key bit references round {rid} with no record")
        if is_same != rec.same_basis:
            raise ValueError(f"key gives round {rid} the wrong same-basis flag")
        trace = rec.eve_trace
        # outcomes[-1] is Eve's photon-2 outcome for either attack kind.
        codes.append((_UNTOUCHED if trace is None else LABELS.index(trace.outcomes[-1]),
                      BASES.index(rec.bob_basis)))
    codes = np.array(codes, dtype=np.int8).reshape(-1, 2)
    return tuple(int(tally.sum()) for tally in eve_tallies(codes[:, 0], codes[:, 1], same))


def eve_information(records: Iterable[RoundRecord], key: KeyBits) -> Optional[float]:
    """Fraction of the receiver's key bits whose value Eve can pin down,
    or None for an empty key.

    A bit counts as known only when Eve's record for its round, combined
    with the public basis announcements, determines the key owner's
    measurement outcome uniquely: the state she resent toward that party
    must have exactly one possible outcome in the announced basis. The bit
    then follows by replaying the encoding rules on that outcome, so she
    knows both bits of a same-basis round or neither. Bits whose
    generating outcome stays ambiguous count zero, even if the candidate
    outcomes happen to share an encoded value.

    ``key`` is the receiver's (Bob's) key and ``records`` must hold each
    of its rounds; Eve's record of a round is the round's ``eve_trace``.
    """
    known_rounds, known_same, _ = _key_rounds(records, key)
    if not len(key):
        return None
    return (known_rounds + known_same) / len(key)


def eve_guess_accuracy(records: Iterable[RoundRecord], key: KeyBits) -> Optional[float]:
    """Expected per-bit accuracy of Eve's best guess at the receiver's key,
    or None for an empty key.

    For each key bit, Eve's posterior over the key owner's outcome is the
    Born distribution of the state she resent (uniform when she did not
    touch the round); the bit is guessed by the larger posterior mass under
    the encoding rules and scores its probability of being right. Captures
    the partial knowledge the certainty criterion of
    :func:`eve_information` deliberately ignores. Every score is an exact
    number of quarters, so the result is one correctly rounded division of
    their integer count.
    """
    quarters = _key_rounds(records, key)[2]
    if not len(key):
        return None
    return quarters / (4 * len(key))
