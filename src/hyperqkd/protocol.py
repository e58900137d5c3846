"""Protocol round engine: basis choice, measurement, sifting, keys, verification.

One round: the parties share the hyperentangled pair state, an optional
eavesdropper interferes on the channel, each party picks one of the two
complementary Bell bases at random and measures its photon, and each
detection independently succeeds with the configured efficiency.
Coincident rounds (both photons detected) are sifted by announced basis
into a same-basis group (2 key bits per round) and a different-basis
group (1 key bit per round); a random sample of same-basis rounds is
compared in public to estimate the mismatch rate and is removed from the
key material.

Per-round uniform draws happen in a fixed documented order so runs replay
bit-exactly from a seed: eavesdropper basis draw(s) (if random), her
measurement draw(s), Alice's basis, Bob's basis, Alice's measurement,
Bob's measurement, Alice's detection, Bob's detection. Forced bases and
a forced measurement order (testing aids) skip the corresponding draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .hilbert import LABELS, BasisType, BellLabel, Photon, build_shared_state, measure_party
from .rng import RandomSource

if TYPE_CHECKING:
    from .adversary import AttackConfig, EveRecord

#: Group tags used in key-bit provenance.
SAME = "same"
DIFF = "diff"

# Same-basis rounds carry two bits; the four labels of either basis map to
# 00, 01, 10, 11 in their fixed listing order.
_CODE_TWO_BITS = {
    BellLabel.PHI_PLUS: (0, 0),
    BellLabel.PHI_MINUS: (0, 1),
    BellLabel.PSI_PLUS: (1, 0),
    BellLabel.PSI_MINUS: (1, 1),
    BellLabel.CHI_PLUS: (0, 0),
    BellLabel.CHI_MINUS: (0, 1),
    BellLabel.OMEGA_PLUS: (1, 0),
    BellLabel.OMEGA_MINUS: (1, 1),
}

# Different-basis rounds carry one bit. The classes {Phi+, Psi-} <-> {omega+,
# chi-} -> 0 and {Phi-, Psi+} <-> {omega-, chi+} -> 1 are exactly the pairs
# that stay correlated when the two parties use different bases, so both
# parties always extract the same bit from an unperturbed round.
_CODE_ONE_BIT = {
    BellLabel.PHI_PLUS: 0,
    BellLabel.PSI_MINUS: 0,
    BellLabel.PHI_MINUS: 1,
    BellLabel.PSI_PLUS: 1,
    BellLabel.OMEGA_PLUS: 0,
    BellLabel.CHI_MINUS: 0,
    BellLabel.OMEGA_MINUS: 1,
    BellLabel.CHI_PLUS: 1,
}


def encode_same_basis(label: BellLabel) -> tuple[int, int]:
    """Two-bit code of an outcome when both parties used the same basis."""
    return _CODE_TWO_BITS[label]


def encode_diff_basis(label: BellLabel) -> int:
    """One-bit code of an outcome when the parties used different bases."""
    return _CODE_ONE_BIT[label]


# A key-bit row holds a round's bits padded to two with _FILLER, which is
# no bit value and fits in two bits. Row 2 * label code + (0 for a
# same-basis round, 1 otherwise) of _BIT_ROWS is the label's two-bit code,
# or its one bit and the filler.
_FILLER = 2
_BIT_ROWS = np.array(
    [row for lab in LABELS
     for row in (encode_same_basis(lab), (encode_diff_basis(lab), _FILLER))],
    dtype=np.uint8,
)


def _is_real(value) -> bool:
    # bool is an int subclass, but True is no efficiency or fraction.
    return isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything one protocol round produced."""

    round_id: int
    alice_basis: BasisType
    bob_basis: BasisType
    alice_outcome: Optional[BellLabel]
    bob_outcome: Optional[BellLabel]
    alice_detected: bool
    bob_detected: bool
    eve_trace: Optional["EveRecord"] = None

    def __post_init__(self) -> None:
        if (self.alice_outcome is not None) != self.alice_detected:
            raise ValueError("alice_outcome must be present iff alice_detected")
        if (self.bob_outcome is not None) != self.bob_detected:
            raise ValueError("bob_outcome must be present iff bob_detected")
        if self.alice_outcome is not None and self.alice_outcome.basis is not self.alice_basis:
            raise ValueError("alice_outcome does not belong to alice_basis")
        if self.bob_outcome is not None and self.bob_outcome.basis is not self.bob_basis:
            raise ValueError("bob_outcome does not belong to bob_basis")
        if self.eve_trace is not None and self.eve_trace.round_id != self.round_id:
            raise ValueError(
                f"eve_trace of round {self.eve_trace.round_id} given for round {self.round_id}"
            )

    @property
    def coincident(self) -> bool:
        return self.alice_detected and self.bob_detected

    @property
    def same_basis(self) -> bool:
        return self.alice_basis is self.bob_basis


@dataclass(frozen=True)
class SiftGroups:
    """Partition of a record list: coincident same-basis, coincident
    different-basis, and discarded (non-coincident) rounds."""

    same_basis: tuple[RoundRecord, ...]
    diff_basis: tuple[RoundRecord, ...]
    discarded: tuple[RoundRecord, ...]


class KeyBits:
    """A party's key material, held as its rounds.

    Immutable. Built from the bits and, for each key round in key order,
    its round id and whether it was a same-basis round, which gave two
    consecutive bits (any other round gave one). The three are held as
    read-only uint8, int64 and bool arrays; an array that already has its
    dtype is not copied. The per-bit provenance ``(round_id, group tag)``
    and the ``bits`` tuple are built from them on first access.

    Raises ValueError unless each is one-dimensional with values its dtype
    holds exactly, the bits are 0 or 1, there is one flag per round id, the
    round ids are strictly increasing, and the bit count is the number of
    rounds plus the same-basis ones.
    """

    __slots__ = ("_bits", "_round_ids", "_same", "_bits_tuple", "_provenance")

    def __init__(
        self,
        bits: Sequence[int] | np.ndarray,
        round_ids: Sequence[int] | np.ndarray,
        same: Sequence[bool] | np.ndarray,
    ) -> None:
        arrays = []
        for name, values, dtype in (
            ("bits", bits, np.uint8), ("round_ids", round_ids, np.int64), ("same", same, bool)
        ):
            given = np.asarray(values)
            arr = given.astype(dtype, copy=False)
            if arr.ndim != 1 or (arr is not given and not np.array_equal(arr, given)):
                raise ValueError(f"{name} must be a 1-D array of {np.dtype(dtype)} values")
            arrays.append(arr)
        bits, round_ids, same = arrays
        if bits.max(initial=0) > 1:
            raise ValueError("key bits must be 0 or 1")
        if len(round_ids) != len(same):
            raise ValueError("round_ids and same must have equal lengths")
        if np.any(round_ids[1:] <= round_ids[:-1]):
            raise ValueError("round_ids must be strictly increasing")
        # A same-basis round gave two bits, any other round one.
        width = len(same) + int(np.count_nonzero(same))
        if len(bits) != width:
            raise ValueError(f"the key rounds give {width} bits, not {len(bits)}")
        for arr in arrays:
            arr.flags.writeable = False
        self._bits, self._round_ids, self._same = arrays
        self._bits_tuple = self._provenance = None

    @property
    def rounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each key round's id and same-basis flag, in key order (read-only)."""
        return self._round_ids, self._same

    @property
    def bits(self) -> tuple[int, ...]:
        if self._bits_tuple is None:
            self._bits_tuple = tuple(self._bits.tolist())
        return self._bits_tuple

    @property
    def provenance(self) -> tuple[tuple[int, str], ...]:
        if self._provenance is None:
            self._provenance = tuple(
                (rid, tag)
                for rid, same in zip(self._round_ids.tolist(), self._same.tolist())
                for tag in ((SAME, SAME) if same else (DIFF,))
            )
        return self._provenance

    def __len__(self) -> int:
        return len(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyBits):
            return NotImplemented
        return all(map(np.array_equal, (self._bits, *self.rounds), (other._bits, *other.rounds)))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in (self._bits, *self.rounds)))

    def __repr__(self) -> str:
        return f"KeyBits({self.as_string()!r})"

    def as_string(self) -> str:
        return (self._bits + 48).tobytes().decode("ascii")


@dataclass(frozen=True)
class VerificationReport:
    """Public comparison of sampled same-basis outcomes.

    ``mismatch_rate`` is None (undefined) when nothing was compared, rather
    than a misleading 0.
    """

    compared_rounds: int
    mismatches: int
    mismatch_rate: Optional[float]

    @property
    def undefined(self) -> bool:
        return self.mismatch_rate is None


def choose_basis(rand: RandomSource) -> BasisType:
    """Fair choice between the two complementary bases; one uniform draw."""
    return BasisType.TYPE_I if rand.uniform() < 0.5 else BasisType.TYPE_II


def run_round(
    round_id: int,
    attack: Optional["AttackConfig"],
    efficiency: float,
    rand: RandomSource,
    *,
    alice_basis: Optional[BasisType] = None,
    bob_basis: Optional[BasisType] = None,
    alice_measures_first: bool = True,
) -> RoundRecord:
    """Execute one protocol round.

    ``rand`` must be the round's own stream (see ``RandomSource.for_round``).
    ``alice_basis``/``bob_basis`` force a party's basis instead of drawing
    it, and ``alice_measures_first`` flips the measurement order; these are
    testing aids and do not change the joint statistics.
    """
    if not _is_real(efficiency) or not 0.0 < efficiency <= 1.0:
        raise ConfigurationError(f"efficiency must be in (0, 1], got {efficiency}")

    state = build_shared_state()
    trace = None
    if attack is not None:
        state, trace = attack.apply(state, round_id, rand)

    a_basis = alice_basis if alice_basis is not None else choose_basis(rand)
    b_basis = bob_basis if bob_basis is not None else choose_basis(rand)

    if alice_measures_first:
        res_a = measure_party(state, Photon.ONE, a_basis, rand)
        res_b = measure_party(res_a.post_state, Photon.TWO, b_basis, rand)
    else:
        res_b = measure_party(state, Photon.TWO, b_basis, rand)
        res_a = measure_party(res_b.post_state, Photon.ONE, a_basis, rand)

    a_detected = rand.uniform() < efficiency
    b_detected = rand.uniform() < efficiency
    return RoundRecord(
        round_id=round_id,
        alice_basis=a_basis,
        bob_basis=b_basis,
        alice_outcome=res_a.label if a_detected else None,
        bob_outcome=res_b.label if b_detected else None,
        alice_detected=a_detected,
        bob_detected=b_detected,
        eve_trace=trace,
    )


def sift(records: Iterable[RoundRecord]) -> SiftGroups:
    """Partition rounds: coincident by basis equality, the rest discarded."""
    same: list[RoundRecord] = []
    diff: list[RoundRecord] = []
    dropped: list[RoundRecord] = []
    for rec in records:
        if not (rec.alice_detected and rec.bob_detected):
            dropped.append(rec)
        elif rec.alice_basis is rec.bob_basis:
            same.append(rec)
        else:
            diff.append(rec)
    return SiftGroups(tuple(same), tuple(diff), tuple(dropped))


def key_bits(
    alice_codes: np.ndarray, bob_codes: np.ndarray, same: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both parties' key bits, in key order, from each key round's label
    codes (hilbert's LABELS) and same-basis flag.

    Each round picks, per party, its row of _BIT_ROWS. Alice's rows go in
    bits 0-1 and Bob's in bits 2-3 of one byte; both parties' fillers fall
    on the same slots, so one mask drops them.
    """
    diff = ~same
    packed = (_BIT_ROWS.take(2 * alice_codes + diff, axis=0)
              | _BIT_ROWS.take(2 * bob_codes + diff, axis=0) << 2).ravel()
    packed = packed[packed != (_FILLER | _FILLER << 2)]
    return packed & 3, packed >> 2


def build_keys(
    groups: SiftGroups, verify_exclusions: Sequence[int] | set[int] = ()
) -> tuple[KeyBits, KeyBits]:
    """Extract both parties' key bits from sifted rounds in round-id order.

    Same-basis rounds contribute two bits, different-basis rounds one;
    rounds consumed by verification are skipped. Both keys share one
    per-round array of ids and one of same-basis flags.
    """
    excluded = frozenset(verify_exclusions)
    ordered = sorted(
        (rec for group in (groups.same_basis, groups.diff_basis) for rec in group
         if rec.round_id not in excluded),
        key=lambda r: r.round_id,
    )
    codes = np.array([(LABELS.index(rec.alice_outcome), LABELS.index(rec.bob_outcome))
                      for rec in ordered], dtype=np.int8).reshape(-1, 2)
    round_ids = np.array([rec.round_id for rec in ordered], dtype=np.int64)
    same = np.array([rec.alice_basis is rec.bob_basis for rec in ordered], dtype=bool)
    alice_bits, bob_bits = key_bits(codes[:, 0], codes[:, 1], same)
    return KeyBits(alice_bits, round_ids, same), KeyBits(bob_bits, round_ids, same)


def verify_sample(
    groups: SiftGroups, fraction: float, rand: RandomSource
) -> tuple[VerificationReport, frozenset[int]]:
    """Publicly compare a random sample of same-basis rounds.

    Samples ``ceil(fraction * len(same_basis))`` rounds uniformly without
    replacement, compares the full outcome labels, and returns the report
    together with the sampled round ids (consumed: excluded from keys).
    ``fraction`` is in [0, 1), the range ``SimConfig`` accepts; at 0 no
    round is compared.
    """
    if not _is_real(fraction) or not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"verification fraction must be in [0, 1), got {fraction}")
    same = groups.same_basis
    n = len(same)
    k = math.ceil(fraction * n)
    if k == 0:
        return VerificationReport(0, 0, None), frozenset()
    chosen = partial_shuffle(n, np.array([rand.uniform() for _ in range(k)])).tolist()
    mismatches = sum(
        1 for i in chosen if same[i].alice_outcome is not same[i].bob_outcome
    )
    consumed = frozenset(same[i].round_id for i in chosen)
    return VerificationReport(k, mismatches, mismatches / k), consumed


def partial_shuffle(n: int, uniforms: np.ndarray) -> np.ndarray:
    """The first ``k = len(uniforms)`` slots of a partial Fisher-Yates
    shuffle of ``range(n)``, a uniform sample without replacement.

    Step ``i`` swaps slot ``i`` with slot ``i + min(int(u_i * (n - i)), n -
    i - 1)``, the target drawn from the step's uniform. No later step
    touches slot ``i``, so it ends up holding what its target held before
    step ``i``: the target itself, unless an earlier step swapped into it,
    in which case what that step's own slot held before it. Both links, the
    last earlier step into a step's target and the last earlier step into
    its own slot, are read off one stable sort of the targets, and the
    second are followed back by pointer jumping.
    """
    k = len(uniforms)
    step = np.arange(k)
    target = step + np.minimum((uniforms * (n - step)).astype(np.int64), n - step - 1)
    order = np.argsort(target, kind="stable")
    ordered = target[order]
    # In the stable order, the steps into one slot follow each other in step
    # order; -1 marks a step with no earlier one into its target.
    into_target = np.full(k, -1)
    repeat = ordered[1:] == ordered[:-1]
    into_target[order[1:][repeat]] = order[:-1][repeat]
    # The last step into slot s is the last entry <= s in the stable order,
    # if its target is s (index -1 wraps to the largest target, which then
    # exceeds s). That entry is step s itself only when s is its own
    # target, and such a step is never followed below: each step followed
    # swapped into a later slot.
    last = order[np.searchsorted(ordered, step, side="right") - 1]
    into_own = np.where(target[last] == step, last, step)
    # held[s] is what slot s held before step s: follow into_own to a step
    # that no earlier step swapped into, doubling the stride each pass.
    held = into_own
    while True:
        jumped = held[held]
        if np.array_equal(jumped, held):
            break
        held = jumped
    return np.where(into_target >= 0, held[into_target], target)
