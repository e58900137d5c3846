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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import ConfigurationError
from .hilbert import (
    BasisType,
    BellLabel,
    Photon,
    basis_labels,
    bell_vector,
    fidelity,
    measure_party,
)
from .protocol import (
    SAME,
    KeyBits,
    RoundRecord,
    encode_diff_basis,
    encode_same_basis,
)
from .rng import RandomSource

# |<basis label_i | resent label>|^2 for each (resent label, measuring basis),
# aligned with basis_labels() order. Same-basis entries are 0/1; cross-basis
# entries are 0 or 1/2 (each Bell state overlaps exactly two states of the
# complementary basis).
_OVERLAP: dict[tuple[BellLabel, BasisType], tuple[float, ...]] = {
    (sent, basis): tuple(
        fidelity(bell_vector(lab), bell_vector(sent)) for lab in basis_labels(basis)
    )
    for sent in BellLabel
    for basis in BasisType
}

# Labels reachable with nonzero probability when the resent state is measured
# in a basis; a singleton means the measuring party's outcome is certain.
_SUPPORT: dict[tuple[BellLabel, BasisType], tuple[BellLabel, ...]] = {
    key: tuple(
        lab for lab, p in zip(basis_labels(key[1]), probs) if p > 1e-9
    )
    for key, probs in _OVERLAP.items()
}

_UNIFORM4 = (0.25, 0.25, 0.25, 0.25)


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
        if (
            self.kind is AttackKind.SINGLE_INTERCEPT
            and self.strategy is EveBasisStrategy.FIXED_DIFFERENT
        ):
            raise ConfigurationError(
                "a single intercept uses one basis per round; "
                "FIXED_DIFFERENT requires the double intercept"
            )

    def bases_for_round(self, rand: RandomSource) -> tuple[BasisType, ...]:
        """Eve's basis (single) or per-photon bases (double) for one round."""
        if self.kind is AttackKind.SINGLE_INTERCEPT:
            if self.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
                return (_random_basis(rand),)
            return (self.fixed_basis,)
        if self.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
            return (_random_basis(rand), _random_basis(rand))
        if self.strategy is EveBasisStrategy.FIXED_SAME:
            return (self.fixed_basis, self.fixed_basis)
        return (self.fixed_basis, self.fixed_basis.other)

    def apply(self, state, round_id: int, rand: RandomSource):
        """Intercept the in-flight photons; returns (resent state, EveRecord)."""
        bases = self.bases_for_round(rand)
        if self.kind is AttackKind.SINGLE_INTERCEPT:
            return eve_single_intercept(state, bases[0], rand, round_id=round_id)
        return eve_double_intercept(state, bases[0], bases[1], rand, round_id=round_id)


def _random_basis(rand: RandomSource) -> BasisType:
    return BasisType.TYPE_I if rand.uniform() < 0.5 else BasisType.TYPE_II


def eve_single_intercept(
    state, basis: BasisType, rand: RandomSource, round_id: int = 0
):
    """Eve measures photon 2 and resends the observed eigenstate to Bob.

    The returned joint state is the conditional photon-1 state tensored
    with the Bell vector Eve observed, which is exactly the projection of
    ``state`` by her measurement.
    """
    res = measure_party(state, Photon.TWO, basis, rand)
    return res.post_state, EveRecord(round_id, (basis,), (res.label,))


def eve_double_intercept(
    state, basis1: BasisType, basis2: BasisType, rand: RandomSource, round_id: int = 0
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


def _index_traces(
    traces: Iterable[EveRecord], records_by_id: dict[int, RoundRecord]
) -> dict[int, EveRecord]:
    by_id: dict[int, EveRecord] = {}
    for trace in traces:
        if trace.round_id in by_id:
            raise ValueError(f"duplicate trace for round {trace.round_id}")
        if trace.round_id not in records_by_id:
            raise ValueError(f"trace for round {trace.round_id} has no matching record")
        by_id[trace.round_id] = trace
    return by_id


def _index_records(records: Iterable[RoundRecord]) -> dict[int, RoundRecord]:
    by_id: dict[int, RoundRecord] = {}
    for rec in records:
        if rec.round_id in by_id:
            raise ValueError(f"duplicate record for round {rec.round_id}")
        by_id[rec.round_id] = rec
    return by_id


def _bit_positions(provenance: Sequence[tuple[int, str]]):
    """Yield (round_id, tag, position-within-round) for each key bit."""
    prev: Optional[int] = None
    pos = 0
    for rid, tag in provenance:
        pos = pos + 1 if rid == prev else 0
        prev = rid
        yield rid, tag, pos


def knows_outcome(eve_outcome: BellLabel, basis: BasisType) -> bool:
    """Whether the state Eve resent as ``eve_outcome`` has one possible
    outcome when the receiver measures it in ``basis``."""
    return len(_SUPPORT[(eve_outcome, basis)]) == 1


def guess_score(
    eve_outcome: Optional[BellLabel], basis: BasisType, tag: str, pos: int
) -> float:
    """Probability that Eve's best guess of one key bit is right.

    ``eve_outcome`` is the photon-2 outcome she resent (None when she did
    not touch the round), ``basis`` the receiver's basis, ``tag`` the key
    group and ``pos`` the bit's position within its round.
    """
    labels = basis_labels(basis)
    probs = _UNIFORM4 if eve_outcome is None else _OVERLAP[(eve_outcome, basis)]
    if tag == SAME:
        q_one = sum(
            p for p, lab in zip(probs, labels) if encode_same_basis(lab)[pos] == 1
        )
    else:
        q_one = sum(p for p, lab in zip(probs, labels) if encode_diff_basis(lab) == 1)
    return max(q_one, 1.0 - q_one)


def eve_information(
    traces: Iterable[EveRecord],
    records: Iterable[RoundRecord],
    key: KeyBits,
) -> float:
    """Fraction of the receiver's key bits whose value Eve can pin down.

    A bit counts as known only when Eve's record for its round, combined
    with the public basis announcements, determines the key owner's
    measurement outcome uniquely: the state she resent toward that party
    must have exactly one possible outcome in the announced basis. The bit
    then follows by replaying the encoding rules on that outcome. Bits
    whose generating outcome stays ambiguous count zero, even if the
    candidate outcomes happen to share an encoded value.

    ``key`` is the receiver's (Bob's) key; ``traces`` and ``records`` must
    align by round id.
    """
    records_by_id = _index_records(records)
    traces_by_id = _index_traces(traces, records_by_id)
    if not key.bits:
        return 0.0
    known = 0
    for rid, _tag in key.provenance:
        rec = records_by_id.get(rid)
        if rec is None:
            raise ValueError(f"key bit references round {rid} with no record")
        trace = traces_by_id.get(rid)
        if trace is None:
            continue
        # outcomes[-1] is Eve's photon-2 outcome for either attack kind.
        if knows_outcome(trace.outcomes[-1], rec.bob_basis):
            known += 1
    return known / len(key.bits)


def eve_guess_accuracy(
    traces: Iterable[EveRecord],
    records: Iterable[RoundRecord],
    key: KeyBits,
) -> float:
    """Expected per-bit accuracy of Eve's best guess at the receiver's key.

    For each key bit, Eve's posterior over the key owner's outcome is the
    Born distribution of the state she resent (uniform when she did not
    touch the round); the bit is guessed by the larger posterior mass under
    the encoding rules and scores its probability of being right. Captures
    the partial knowledge the certainty criterion of
    :func:`eve_information` deliberately ignores.
    """
    records_by_id = _index_records(records)
    traces_by_id = _index_traces(traces, records_by_id)
    if not key.bits:
        return 0.0
    total = 0.0
    for rid, tag, pos in _bit_positions(key.provenance):
        rec = records_by_id.get(rid)
        if rec is None:
            raise ValueError(f"key bit references round {rid} with no record")
        trace = traces_by_id.get(rid)
        eve_outcome = None if trace is None else trace.outcomes[-1]
        total += guess_score(eve_outcome, rec.bob_basis, tag, pos)
    return total / len(key.bits)
