"""Counter-based deterministic random source.

Every stream is a pure function of a 64-bit seed, so a round's randomness
depends only on (master seed, round id) and never on how rounds are
grouped or ordered. The generator is SplitMix64: constant-time seeding,
full 64-bit avalanche, and identical output on every platform.

SplitMix64 is counter-based: output ``n`` (from 1) of the stream whose seed
state is ``s`` is ``mix64(s + n * GAMMA)``. A batch's rounds share one such
stream, seeded with ``mix64(master_seed)``: round ``i`` owns its outputs
``3i + 1`` to ``3i + 3`` (:data:`DRAWS_PER_ROUND`), so its state, from which
:meth:`RandomSource.for_round` starts, is ``mix64(master_seed) + 3i * GAMMA``
and its draw ``j`` is ``mix64(mix64(master_seed) + (3i + j + 1) * GAMMA)``.
GAMMA is odd, so the ``n * GAMMA`` differ for every ``n`` below 2**64 and no
two draws of a batch of fewer than 2**64 / 3 rounds share a state; a
``SimConfig`` of more rounds does not validate.
:func:`round_draw` and :func:`stream_uniforms` use the counter to compute
any draw directly, many at once with numpy, bit-identical to the scalar
:class:`RandomSource` they share constants with (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011). A batch's blocks of
consecutive rounds take their decision words from :func:`decision_words`:
a table of the rounds' offsets ``arange(block) * 3 * GAMMA``, which
:func:`round_offsets` builds once per process and keeps read-only, plus one
scalar per block, ``lo * 3 * GAMMA + mix64(master_seed) + GAMMA`` modulo
2**64, then the mix, in arrays the batch allocates once. So a block costs
one addition before the mix and allocates nothing, and a batch can draw its
rounds again, in any block, as cheaply as the first time.

A protocol round reads its three draws. Draw 0 is its decision word: every
fair decision of the round (a basis is one bit, a measurement outcome two)
reads the word's next top bits, the first decision the most significant,
so the round's at most :data:`DECISION_BITS` (12) decision bits are
``word >> (64 - bits)`` (:class:`DecisionWord`). Reading bits off one word
is exact, because every probability of a decision is a multiple of 1/4
(Knuth and Yao 1976).

The word's low ``2 * DETECTION_BITS`` (52) bits decide Alice's and Bob's
detections: Alice's field is bits 26-51, ``word >> 26 & (2**26 - 1)``, and
Bob's is bits 0-25. At efficiency ``p`` a party is detected when its
53-bit integer uniform, its field above the top 27 bits of its own draw
(1 for Alice, 2 for Bob; :func:`detection_uniform`), is below
``T = below_threshold(p) >> 11 = ceil(p * 2**53)``. A field below
``T >> 27`` is detected and one above it is not, whatever the draw, so the
party's draw decides only when its field equals ``T >> 27``, with
probability 2**-26. A detection is thus a lazy comparison of uniform bits,
exact for any ``p`` (Knuth and Yao 1976), and its probability is exactly
``below_threshold(p) / 2**64``.

At efficiency 1 the decision word is read only in its top bits, and the
mix's last step ``z ^ (z >> 31)`` leaves the top 31 bits of ``z`` as they
are. So :func:`round_draw` may skip it for that draw, which then equals
the scalar stream's draw in its top 31 bits only.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

#: Draws of the batch stream that each round owns (see the module docstring).
DRAWS_PER_ROUND = 3
#: Bits of a decision word that each party's detection field holds.
DETECTION_BITS = 26
#: Top bits of a decision word that the round's decisions may read; the
#: rest are the two detection fields.
DECISION_BITS = 64 - 2 * DETECTION_BITS
# A detection's uniform has 53 bits: its field above the top _TIE_BITS bits
# of the party's own draw.
_TIE_BITS = 53 - DETECTION_BITS
_FIELD_MASK = (1 << DETECTION_BITS) - 1


def mix64(value: int) -> int:
    """64-bit finalizer with full avalanche (SplitMix64 mixing function)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Deterministic uniform generator over [0, 1).

    Instances are cheap to create; simulation code makes one per round via
    :meth:`for_round`, which starts at the round's own draws of the batch
    stream, so no round's draws depend on any other round.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @classmethod
    def for_round(cls, master_seed: int, round_id: int) -> "RandomSource":
        """The batch stream of ``master_seed`` positioned at round
        ``round_id``'s :data:`DRAWS_PER_ROUND` draws; a further draw would
        be the next round's."""
        return cls(mix64(master_seed) + DRAWS_PER_ROUND * round_id * _GAMMA)

    @classmethod
    def for_stream(cls, master_seed: int, stream_label: int) -> "RandomSource":
        """Derive an auxiliary stream (e.g. verification sampling) from the master seed."""
        return cls(mix64((master_seed & _MASK64) ^ mix64(stream_label)))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Next double in [0, 1), consuming exactly one 64-bit step."""
        return (self.next_u64() >> 11) * _INV_2_53

    def bits(self, width: int) -> int:
        """The top ``width`` bits (1 to 64) of the next draw, as an integer."""
        return self.next_u64() >> (64 - width)


class DecisionWord:
    """One 64-bit draw handed out a few bits at a time, most significant first.

    A round's decisions read its decision word through :meth:`bits`, as
    they would read a :class:`RandomSource`'s draws, one draw each. Only
    the word's top :data:`DECISION_BITS` bits are handed out: the rest are
    the detection fields (:meth:`detection_fields`), which no decision reads.
    The word may be an integer or a uint64 array of words, read alike, each
    element's bits handed out as a uint64 array.
    """

    __slots__ = ("_word", "_left")

    def __init__(self, word: int) -> None:
        self._word = word & _MASK64
        self._left = DECISION_BITS

    def bits(self, width: int) -> int:
        """The word's next ``width`` bits, as an integer; ValueError once
        fewer than ``width`` decision bits are left."""
        if not 0 < width <= self._left:
            raise ValueError(
                f"{width} bits asked of a word with {self._left} decision bits left")
        self._left -= width
        return self._word >> (self._left + 2 * DETECTION_BITS) & ((1 << width) - 1)

    @property
    def bits_read(self) -> int:
        """How many decision bits :meth:`bits` has handed out."""
        return DECISION_BITS - self._left

    def detection_fields(self) -> tuple[int, int]:
        """Alice's and Bob's detection fields: bits 26-51 and bits 0-25."""
        return self._word >> DETECTION_BITS & _FIELD_MASK, self._word & _FIELD_MASK


def detection_threshold(p: float) -> tuple[int, int]:
    """Where a detection of probability ``p`` (in (0, 1]) is decided: the
    bound ``below_threshold(p) >> 11`` that the party's
    :func:`detection_uniform` must be below, and the field on which the
    party's own draw decides. A field below that one is detected and a
    field above it is not, whatever the draw; at ``p`` 1 every field is
    below it."""
    bound = below_threshold(p) >> 11
    return bound, bound >> _TIE_BITS


def detection_uniform(field, draw):
    """A detection's 53-bit integer uniform: the party's field of the
    decision word above the top bits of the party's own draw, integers or
    uint64 arrays. The party is detected when it is below the bound of
    :func:`detection_threshold`."""
    return field << _TIE_BITS | draw >> (64 - _TIE_BITS)


def below_threshold(p: float) -> int:
    """The least draw ``x`` whose uniform is not below ``p``, for ``p`` in (0, 1].

    ``uniform < p`` holds exactly when ``x >> 11 < ceil(p * 2**53)``, that
    is when ``x < below_threshold(p)``; scaling by a power of two is exact,
    so no rounding enters. The threshold is 2**64 when ``p`` is 1.
    """
    return math.ceil(float(p) * 2.0**53) << 11


def _mix64_array(
    z: np.ndarray, exact: bool = True, tmp: Optional[np.ndarray] = None
) -> np.ndarray:
    """:func:`mix64` over a uint64 array, in place. Unless ``exact``, the
    mix's last step is skipped, which leaves each result's top 31 bits as
    :func:`mix64`'s. ``tmp`` is a uint64 array of ``z``'s length that the
    shifts are written to, or None for a new one. Array arithmetic wraps
    modulo 2**64."""
    if tmp is None:
        tmp = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=tmp)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, 27, out=tmp)
    z *= np.uint64(_MIX2)
    if exact:
        z ^= np.right_shift(z, 31, out=tmp)
    return z


def round_draw(
    master_seed: int, round_ids: np.ndarray, j: int, exact: bool = True
) -> np.ndarray:
    """Draw ``j`` of each round's stream: at position ``k``, the ``j + 1``-th
    ``RandomSource.for_round(master_seed, round_ids[k]).next_u64()``, as
    uint64, or only in its top 31 bits unless ``exact`` (see the module
    docstring). ``round_ids`` is uint64. A round has :data:`DRAWS_PER_ROUND`
    draws, so a ``j`` outside 0 to 2 raises ValueError: that draw would be
    another round's.
    """
    if not 0 <= j < DRAWS_PER_ROUND:
        raise ValueError(f"a round has draws 0 to {DRAWS_PER_ROUND - 1}, not {j}")
    # Array arithmetic wraps modulo 2**64; the constants are reduced as
    # Python ints, as numpy scalar arithmetic would warn on the wrap-around.
    z = round_ids * np.uint64(DRAWS_PER_ROUND * _GAMMA & _MASK64)
    z += np.uint64(mix64(master_seed) + (j + 1) * _GAMMA & _MASK64)
    return _mix64_array(z, exact)


# The largest offsets table built so far in this process (read-only), of
# which round_offsets hands out the start.
_offsets = np.empty(0, dtype=np.uint64)


def round_offsets(count: int) -> np.ndarray:
    """How far each of ``count`` consecutive rounds' states lie past the
    first's in the batch stream: ``arange(count) * 3 * GAMMA`` as uint64,
    modulo 2**64, read-only. The table is built once per process and again
    only when a larger one is asked for; a batch takes one for its block,
    and :func:`decision_words` adds one scalar to it per block."""
    global _offsets
    if count > len(_offsets):
        table = np.arange(count, dtype=np.uint64)
        table *= np.uint64(DRAWS_PER_ROUND * _GAMMA & _MASK64)
        table.flags.writeable = False
        _offsets = table
    return _offsets[:count]


def decision_words(
    master_seed: int, offsets: np.ndarray, lo: int, exact: bool = True,
    out: Optional[np.ndarray] = None, tmp: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The decision words of rounds ``lo`` to ``lo + len(offsets) - 1``
    from their :func:`round_offsets`: ``round_draw(master_seed,
    np.arange(lo, lo + len(offsets), dtype=np.uint64), 0, exact)``,
    bit for bit, as uint64. Round ``lo + i``'s state is ``offsets[i]`` plus
    round ``lo``'s, one scalar for the whole block. The words are written
    to ``out`` and the mix's shifts to ``tmp``, uint64 arrays of the
    offsets' length, each None for a new array; ``out`` is returned."""
    first = mix64(master_seed) + _GAMMA + lo * DRAWS_PER_ROUND * _GAMMA
    z = np.add(offsets, np.uint64(first & _MASK64), out=out)
    return _mix64_array(z, exact, tmp)


def stream_uniforms(master_seed: int, stream_label: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of ``RandomSource.for_stream(master_seed, stream_label)``."""
    state = np.uint64(mix64((master_seed & _MASK64) ^ mix64(stream_label)))
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    # The top 53 bits convert to float64 exactly, as in RandomSource.uniform.
    draws = _mix64_array(state + steps)
    return (draws >> 11).astype(np.float64) * _INV_2_53
