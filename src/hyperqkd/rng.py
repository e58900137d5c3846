"""Counter-based deterministic random source.

Every stream is a pure function of a 64-bit seed, so a round's randomness
depends only on (master seed, round id) and never on how rounds are
grouped or ordered. The generator is SplitMix64: constant-time seeding,
full 64-bit avalanche, and identical output on every platform.

SplitMix64 is counter-based: draw ``j`` of a stream whose seed state is
``s`` is ``mix64(s + (j + 1) * GAMMA)``. :func:`round_uniforms` and
:func:`stream_uniforms` use that to compute many draws at once with numpy,
bit-identical to the scalar :class:`RandomSource` they share constants with
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def mix64(value: int) -> int:
    """64-bit finalizer with full avalanche (SplitMix64 mixing function)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Deterministic uniform generator over [0, 1).

    Instances are cheap to create; simulation code makes one per round via
    :meth:`for_round` so that no round's draws depend on any other round.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @classmethod
    def for_round(cls, master_seed: int, round_id: int) -> "RandomSource":
        """Derive the independent stream for one round of a batch."""
        return cls(mix64((master_seed & _MASK64) ^ mix64(round_id)))

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array; array arithmetic wraps modulo 2**64."""
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


def _to_uniform(u: np.ndarray) -> np.ndarray:
    # The top 53 bits convert to float64 exactly, as in RandomSource.uniform.
    return (u >> 11).astype(np.float64) * _INV_2_53


def round_uniforms(master_seed: int, round_ids: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uniforms of each round's stream.

    Returns a ``(count, len(round_ids))`` float64 array whose entry
    ``[j, k]`` equals the ``j``-th ``RandomSource.for_round(master_seed,
    round_ids[k]).uniform()``.
    """
    seed = np.uint64(master_seed & _MASK64)
    states = _mix64_array(seed ^ _mix64_array(np.asarray(round_ids, dtype=np.uint64)))
    out = np.empty((count, len(states)), dtype=np.float64)
    for j in range(count):
        # The offset is reduced as a Python int: numpy scalar arithmetic
        # would warn on the wrap-around that array arithmetic does silently.
        out[j] = _to_uniform(
            _mix64_array(states + np.uint64(((j + 1) * _GAMMA) & _MASK64))
        )
    return out


def stream_uniforms(master_seed: int, stream_label: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of ``RandomSource.for_stream(master_seed, stream_label)``."""
    state = np.uint64(mix64((master_seed & _MASK64) ^ mix64(stream_label)))
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _to_uniform(_mix64_array(state + steps))
