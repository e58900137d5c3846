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
:func:`round_draws` and :func:`stream_uniforms` use the counter to compute
many draws at once with numpy, bit-identical to the scalar
:class:`RandomSource` they share constants with (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).

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
are. So the first ``top`` draws of :func:`round_draws` skip it and equal
the scalar stream's draws in their top 31 bits only; every later draw is
exact.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

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


def _mix64_top_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array without its last step, in place:
    each result's top 31 bits are :func:`mix64`'s. ``tmp`` is scratch of
    the same shape. Array arithmetic wraps modulo 2**64."""
    z ^= np.right_shift(z, 30, out=tmp)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, 27, out=tmp)
    z *= np.uint64(_MIX2)
    return z


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array, in place; ``tmp`` is scratch of the
    same shape."""
    _mix64_top_inplace(z, tmp)
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def round_draws(
    master_seed: int, round_ids: np.ndarray, count: int, top: int = 0,
    buffers: Sequence[np.ndarray] | None = None,
) -> Iterator[np.ndarray]:
    """The first ``count`` raw draws of each round's stream, one array per draw.

    The ``j``-th array yielded holds, at position ``k``, the ``j``-th
    ``RandomSource.for_round(master_seed, round_ids[k]).next_u64()`` as
    uint64; the first ``top`` arrays hold it in their top 31 bits only (see
    the module docstring). ``round_ids`` is uint64. ``buffers`` holds three
    uint64 arrays of ``len(round_ids)`` that the caller owns, for the round
    states, the draws and scratch; without it they are allocated. Every draw
    is computed in place into the same buffer, so an array is valid only
    until the next one is asked for. A round has :data:`DRAWS_PER_ROUND`
    draws: with a larger ``count`` the first draw asked for raises
    ValueError, since the next draw is the next round's.
    """
    if count > DRAWS_PER_ROUND:
        raise ValueError(f"a round has {DRAWS_PER_ROUND} draws, not {count}")
    if buffers is None:
        buffers = np.empty((3, len(round_ids)), dtype=np.uint64)
    states, out, tmp = buffers
    # Array arithmetic wraps modulo 2**64; the constants are reduced as
    # Python ints, as numpy scalar arithmetic would warn on the wrap-around.
    np.multiply(round_ids, np.uint64(DRAWS_PER_ROUND * _GAMMA & _MASK64), out=states)
    states += np.uint64(mix64(master_seed))
    for j in range(count):
        np.add(states, np.uint64((j + 1) * _GAMMA & _MASK64), out=out)
        yield (_mix64_top_inplace if j < top else _mix64_inplace)(out, tmp)


def stream_uniforms(master_seed: int, stream_label: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of ``RandomSource.for_stream(master_seed, stream_label)``."""
    state = np.uint64(mix64((master_seed & _MASK64) ^ mix64(stream_label)))
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    # The top 53 bits convert to float64 exactly, as in RandomSource.uniform.
    draws = _mix64_inplace(state + steps, np.empty(count, dtype=np.uint64))
    return (draws >> 11).astype(np.float64) * _INV_2_53
