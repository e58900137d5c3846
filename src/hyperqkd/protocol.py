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

A round reads its stream in a fixed documented layout so runs replay
bit-exactly from a seed. Its first draw is its decision word
(:class:`hyperqkd.rng.DecisionWord`), whose top bits the fair decisions
read in this order, one bit for a basis and two for a measurement:
eavesdropper basis (or bases, if random), her measurement(s), Alice's
basis, Bob's basis, Alice's measurement, Bob's measurement. The word's
low 52 bits hold Alice's and Bob's detection fields, and each party's
detection compares its field, above the top bits of the round's next draw
(Alice's) or the one after it (Bob's), with the efficiency's threshold
(:func:`hyperqkd.rng.detection_uniform`).

A coincident round's key bits are held as one packed key row
(:func:`key_rows`): two one-byte slots held as one uint16, one slot per
key bit of the round, each holding Alice's bit in its bits 0-1 and Bob's
in bits 2-3. A different-basis round's second slot holds the fillers, and
so do both slots of a checked round (:data:`FILLER_ROW`). This module
alone reads the layout: :func:`same_basis`, :func:`key_errors` and
:func:`key_bits` read the rows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .hilbert import LABELS, BasisType, BellLabel, Photon, build_shared_state, measure_party
from .rng import DecisionWord, RandomSource, detection_threshold, detection_uniform

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
# or its one bit and the filler. _FILLERS is a packed slot of key_rows that
# holds the filler for both parties, as every other round's second slot does.
_FILLER = 2
_FILLERS = _FILLER | _FILLER << 2
_BIT_ROWS = np.array(
    [row for lab in LABELS
     for row in (encode_same_basis(lab), (encode_diff_basis(lab), _FILLER))],
    dtype=np.uint8,
)
# The mask of a packed row's second slot, and that slot holding the
# fillers, each as the uint16 whose second byte it is.
_SLOT2 = np.array([0, 0xFF], dtype=np.uint8).view(np.uint16)[0]
_SLOT2_FILLERS = np.array([0, _FILLERS], dtype=np.uint8).view(np.uint16)[0]
#: A packed key row with the fillers in both slots, which gives no key bit:
#: a checked round's row is set to it, which takes the round out of the key.
FILLER_ROW = _FILLERS << 8 | _FILLERS


def _is_real(value) -> bool:
    # bool is an int subclass, but True is no efficiency or fraction.
    return isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)


# The one home of the efficiency's and the verification fraction's ranges,
# which SimConfig.validate, run_round and verify_sample all test. The range
# tests are written so that NaN fails them.
def valid_efficiency(value) -> bool:
    """Whether ``value`` is a real number in (0, 1]."""
    return _is_real(value) and 0.0 < value <= 1.0


def valid_fraction(value) -> bool:
    """Whether ``value`` is a real number in [0, 1)."""
    return _is_real(value) and 0.0 <= value < 1.0


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


def _as_1d(name: str, values, dtype) -> np.ndarray:
    """``values`` as a 1-D array of ``dtype``, not copied if it already is one.
    Raises ValueError unless every value is held exactly."""
    given = np.asarray(values)
    arr = given.astype(dtype, copy=False)
    if arr.ndim != 1 or (arr is not given and not np.array_equal(arr, given)):
        raise ValueError(f"{name} must be a 1-D array of {np.dtype(dtype)} values")
    return arr


class KeyBits:
    """A party's key material, held as its bits and its rounds.

    Immutable. Built from the bits and, for each key round in key order,
    its round id and whether it was a same-basis round, which gave two
    consecutive bits (any other round gave one). The three are held as
    read-only uint8, int64 and bool arrays; an array that already has its
    dtype is not copied. The per-bit provenance ``(round_id, group tag)``
    and the ``bits`` tuple are built from them on first access. A batch's
    keys are built from their bits alone and derive their rounds from the
    batch on first access (:meth:`_of_batch`).

    Raises ValueError unless each is one-dimensional with values its dtype
    holds exactly, there is one flag per round id, the round ids are
    strictly increasing, the bits are 0 or 1, and the bit count is the
    number of rounds plus the same-basis ones. :meth:`with_bits` gives the
    other party's key of the same rounds.
    """

    __slots__ = ("_bits", "_rounds", "_bits_tuple", "_provenance")

    def __init__(
        self,
        bits: Sequence[int] | np.ndarray,
        round_ids: Sequence[int] | np.ndarray,
        same: Sequence[bool] | np.ndarray,
    ) -> None:
        round_ids = _as_1d("round_ids", round_ids, np.int64)
        same = _as_1d("same", same, bool)
        if len(round_ids) != len(same):
            raise ValueError("round_ids and same must have equal lengths")
        if np.any(round_ids[1:] <= round_ids[:-1]):
            raise ValueError("round_ids must be strictly increasing")
        round_ids.flags.writeable = same.flags.writeable = False
        rounds = round_ids, same
        # A same-basis round gave two bits, any other round one.
        self._set(bits, lambda: rounds, len(same) + int(np.count_nonzero(same)))

    @classmethod
    def _of_batch(cls, bits: Sequence[int] | np.ndarray, width: int,
                  rounds: Callable) -> "KeyBits":
        """The key that holds ``bits``, ``width`` of them, checked as the
        constructor checks bits, of the rounds that ``rounds()`` gives: the
        key rounds' ids and same-basis flags as read-only arrays, the same
        two at every call. It is called when the rounds are first read, so
        a batch passes a cached derivation that its two keys share."""
        key = cls.__new__(cls)
        key._set(bits, rounds, width)
        return key

    def _set(self, bits, rounds: Callable, width: int) -> None:
        bits = _as_1d("bits", bits, np.uint8)
        if bits.max(initial=0) > 1:
            raise ValueError("key bits must be 0 or 1")
        if len(bits) != width:
            raise ValueError(f"the key rounds give {width} bits, not {len(bits)}")
        bits.flags.writeable = False
        self._bits, self._rounds = bits, rounds
        self._bits_tuple = self._provenance = None

    def with_bits(self, bits: Sequence[int] | np.ndarray) -> "KeyBits":
        """The key of this key's rounds that holds ``bits``. Only the bits
        are checked, as the constructor checks them: the rounds were checked
        when this key was built, and the two keys share their arrays."""
        return self._of_batch(bits, len(self._bits), self._rounds)

    @property
    def rounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each key round's id and same-basis flag, in key order (read-only)."""
        return self._rounds()

    @property
    def bits(self) -> tuple[int, ...]:
        if self._bits_tuple is None:
            self._bits_tuple = tuple(self._bits.tolist())
        return self._bits_tuple

    @property
    def provenance(self) -> tuple[tuple[int, str], ...]:
        if self._provenance is None:
            round_ids, flags = self.rounds
            self._provenance = tuple(
                (rid, tag)
                for rid, same in zip(round_ids.tolist(), flags.tolist())
                for tag in ((SAME, SAME) if same else (DIFF,))
            )
        return self._provenance

    def __len__(self) -> int:
        return len(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyBits):
            return NotImplemented
        # The bits first: a batch's key derives its rounds only if they agree.
        return (np.array_equal(self._bits, other._bits)
                and all(map(np.array_equal, self.rounds, other.rounds)))

    def __hash__(self) -> int:
        return hash((self._bits.tobytes(), *(a.tobytes() for a in self.rounds)))

    def __repr__(self) -> str:
        return f"KeyBits({self.as_string()!r})"

    def as_string(self) -> str:
        return (self._bits + 48).tobytes().decode("ascii")

    def sha256(self) -> str:
        """The SHA-256 hex digest of :meth:`as_string`'s ASCII bytes, hashed
        64 KiB at a time so that no copy of the whole key is made."""
        digest, chunk = hashlib.sha256(), 1 << 16
        for lo in range(0, len(self._bits), chunk):
            digest.update(self._bits[lo:lo + chunk] + 48)
        return digest.hexdigest()


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


def choose_basis(rand: RandomSource | DecisionWord) -> BasisType:
    """Fair choice between the two complementary bases, from one bit of
    ``rand`` (``bits(1)``): type-I on 0."""
    return BasisType.TYPE_II if rand.bits(1) else BasisType.TYPE_I


def run_round(
    round_id: int,
    attack: Optional["AttackConfig"],
    efficiency: float,
    rand: RandomSource,
) -> RoundRecord:
    """Execute one protocol round.

    ``rand`` must be the round's own stream (see ``RandomSource.for_round``);
    the round reads three draws of it, in the layout of the module
    docstring: its decision word, then Alice's and Bob's draws, which
    decide a detection only when the party's field ties with the threshold
    but are read whatever the fields.
    """
    if not valid_efficiency(efficiency):
        raise ConfigurationError(f"efficiency must be in (0, 1], got {efficiency}")

    word = DecisionWord(rand.next_u64())
    state = build_shared_state()
    trace = None
    if attack is not None:
        state, trace = attack.apply(state, round_id, word)

    a_basis = choose_basis(word)
    b_basis = choose_basis(word)
    res_a = measure_party(state, Photon.ONE, a_basis, word)
    res_b = measure_party(res_a.post_state, Photon.TWO, b_basis, word)

    bound, _ = detection_threshold(efficiency)
    a_field, b_field = word.detection_fields()
    a_detected = detection_uniform(a_field, rand.next_u64()) < bound
    b_detected = detection_uniform(b_field, rand.next_u64()) < bound
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


def key_rows(alice_codes: np.ndarray, bob_codes: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Both parties' key-bit rows, one packed pair of bytes per round held
    as one uint16, so that a gather moves each row at once, from each
    round's label codes (hilbert's LABELS) and same-basis flag.

    Each round picks, per party, its row of _BIT_ROWS. Alice's rows go in
    bits 0-1 and Bob's in bits 2-3 of each byte; both parties' fillers fall
    on the same slots, so :func:`key_bits` drops them with one mask.
    """
    diff = ~same
    rows = (_BIT_ROWS.take(2 * alice_codes + diff, axis=0)
            | _BIT_ROWS.take(2 * bob_codes + diff, axis=0) << 2)
    return rows.view(np.uint16).ravel()


def same_basis(rows: np.ndarray) -> np.ndarray:
    """Whether the parties of each round chose equal bases (bool), read off
    the rounds' packed key rows (:func:`key_rows`): a same-basis round's
    second slot holds bits, any other's fillers. Masking the whole rows is
    faster than comparing every second byte."""
    return (rows & _SLOT2) != _SLOT2_FILLERS


def key_errors(rows: np.ndarray) -> np.ndarray:
    """How many of each packed key row's (:func:`key_rows`) bits differ
    between Alice and Bob (int64). A filler slot holds the filler for both
    parties, so it never differs."""
    slots = rows.view(np.uint8).reshape(-1, 2)
    return np.count_nonzero(slots & 3 != slots >> 2, axis=1)


def key_bits(
    rows: np.ndarray, both: bool,
    out: tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None),
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Both parties' key bits, in key order, from the key rounds' packed
    rows (:func:`key_rows`), in round order; Bob's are None unless
    ``both``. A slot that holds the fillers gives no bit. A party's array
    in ``out`` (uint8, or None for a new array) takes its bits at its
    start, and the bits returned are that part of it."""
    packed = rows.view(np.uint8)
    keep = np.flatnonzero(packed != _FILLERS)
    alice, bob = (None if arr is None else arr[:len(keep)] for arr in out)
    # The slots go straight into Alice's array; clipping changes none of
    # the kept indices and, unlike the default, needs no buffer for ``out``.
    alice = packed.take(keep, out=alice, mode="clip")
    # Bob's bits are shifted out of the slots before Alice's are masked.
    bob = np.right_shift(alice, 2, out=bob) if both else None
    return np.bitwise_and(alice, 3, out=alice), bob


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
    alice_bits, bob_bits = key_bits(key_rows(codes[:, 0], codes[:, 1], same), True)
    alice = KeyBits(alice_bits, round_ids, same)
    return alice, alice.with_bits(bob_bits)


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
    if not valid_fraction(fraction):
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
    its own slot, are read off the targets' stable order, and the second
    are followed back by pointer jumping. Raises ValueError unless ``n *
    k`` is below 2**63, the bound of the sort keys.
    """
    k = len(uniforms)
    if n * k >= 2**63:
        raise ValueError(f"partial_shuffle needs n * k < 2**63, got n = {n}, k = {k}")
    step = np.arange(k)
    target = step + np.minimum((uniforms * (n - step)).astype(np.int64), n - step - 1)
    # The keys target * k + step are distinct and below n * k, and they sort
    # as (target, step) pairs: one sort gives the targets' stable order.
    ordered, order = np.divmod(np.sort(target * k + step), k)
    # In the stable order, the steps into one slot follow each other in step
    # order; -1 marks a step with no earlier one into its target.
    into_target = np.full(k, -1)
    repeat = ordered[1:] == ordered[:-1]
    into_target[order[1:][repeat]] = order[:-1][repeat]
    # The last step into slot s is the last entry <= s in the stable order,
    # if its target is s (index -1 wraps to the largest target, which then
    # exceeds s). That entry is step s itself only when s is its own
    # target, and such a step is never followed below: each step followed
    # swapped into a later slot. The count of targets <= s is a running sum
    # of the targets' histogram, which is faster than a search.
    at_most = np.cumsum(np.bincount(np.minimum(ordered, k), minlength=k + 1)[:k])
    last = order[at_most - 1]
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
