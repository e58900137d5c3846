"""The batch engine's block loops, in plain numpy on one block at a time.

:func:`draw_blocks` is the one loop that draws a batch's rounds. Block by
block, it computes each round's decision word (draw 0 in the stream layout
of :mod:`hyperqkd.rng`: a per-batch table of offsets plus one scalar per
block, then the mix) and reads every decision off it as an integer: all of
the round's bases and measurement outcomes, its pattern, off the word's top
bits with one shift, and each detection off a comparison of the party's
field of the word's low 52 bits with the field the efficiency's threshold
ties with. The party's own draw (1 for Alice, 2 for Bob) is computed only
for a round whose field ties, about once in 2**26. At efficiency 1 every
detection succeeds and only the word's top bits are computed.

Everything else here reads those blocks, or what they gave, and so do a
batch's records (:func:`hyperqkd.montecarlo._block_records`):

* :func:`coincident_patterns` keeps the coincident rounds' patterns, as
  uint16, and their histogram: all that the batch's counters and keys need
  of its rounds.
* :func:`extract_keys` gathers those patterns' packed key rows from one
  pattern table into one buffer, block by block, reads which are
  same-basis rounds off the rows (:func:`same_basis`), sums the verified
  rounds' counter columns, turns their rows into fillers, and
  :func:`key_bits` copies each block's key slots into the keys: the key
  bits are all it writes per round.
* :func:`key_rounds` derives which rounds the key holds, drawing the
  rounds again and reading the same rule off their rows, only when a key's
  rounds are asked for.

The batch's histogram counts uint64 patterns viewed as int64, numpy's index
type, so no index array is converted. Beyond what a call returns, its
memory is one block's buffers, allocated once per call, and temporaries of
one block, whatever the number of rounds.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .protocol import _FILLERS, key_bits
from .rng import (
    _FIELD_MASK, DETECTION_BITS, decision_words, detection_threshold, detection_uniform,
    round_draw, round_offsets,
)


# The mask of a packed key row's second slot, and that slot holding the
# fillers, each as the uint16 whose second byte it is.
_SLOT2 = np.array([0, 0xFF], dtype=np.uint8).view(np.uint16)[0]
_SLOT2_FILLERS = np.array([0, _FILLERS], dtype=np.uint8).view(np.uint16)[0]


def draw_blocks(
    seed: int, rounds: int, efficiency: float, bits: int, block: int
) -> Iterator[tuple[int, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Each block of ``block`` rounds of a batch, in round order, as
    ``(lo, pattern, alice, bob)``: the id of the block's first round, each
    round's pattern, the top ``bits`` bits of its decision word (uint64),
    and Alice's and Bob's detections (bool), or two Nones at efficiency 1,
    where every detection succeeds.

    The batch allocates its arrays once, and each block's arrays are views
    of them that the next block overwrites: a caller copies what it keeps
    of a block before it asks for the next one, and may write over the
    block's arrays.

    Below efficiency 1 a party is detected when its field of the word is
    below the field the threshold ties with, and only a tied round computes
    the party's own draw, which decides it.
    """
    size = min(block, rounds)
    offsets = round_offsets(size)
    # The decision words, then the patterns in place; the mix's shifts,
    # then each party's field.
    word, field = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    detect = efficiency < 1.0
    if detect:
        bound, tie = detection_threshold(efficiency)
        alice, bob, tied = (np.empty(size, dtype=bool) for _ in range(3))
    for lo in range(0, rounds, block):
        n = min(block, rounds - lo)
        w, f = word[:n], field[:n]
        decision_words(seed, offsets[:n], lo, exact=detect, out=w, tmp=f)
        detections = [None, None]
        if detect:
            for j, shift, detected in ((1, DETECTION_BITS, alice[:n]), (2, 0, bob[:n])):
                # The field is compared where it lies in the word, with the
                # bits below it masked off, which saves a shift.
                np.bitwise_and(w, np.uint64(_FIELD_MASK << shift), out=f)
                at = np.uint64(tie << shift)
                np.less(f, at, out=detected)
                if np.equal(f, at, out=tied[:n]).any():
                    ids = np.flatnonzero(tied[:n])
                    draw = round_draw(seed, ids.astype(np.uint64) + np.uint64(lo), j)
                    detected[ids] = detection_uniform(tie, draw) < bound
                detections[j - 1] = detected
        yield lo, np.right_shift(w, 64 - bits, out=w), *detections


def coincident_patterns(
    seed: int, rounds: int, efficiency: float, bits: int, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """The coincident rounds' patterns (uint16), in round order, and their
    histogram (int64, one bin per pattern), from :func:`draw_blocks`' blocks
    of the same arguments. Below efficiency 1 each block's patterns are
    compressed once, on both detections; at efficiency 1 every round is
    coincident. MemoryError if the patterns might not fit in one array.
    """
    if 2 * rounds > np.iinfo(np.intp).max:
        # numpy refuses an array this large with ValueError.
        raise MemoryError(f"{rounds} patterns do not fit in one array")
    patterns = np.empty(rounds, dtype=np.uint16)
    counts = np.zeros(1 << bits, dtype=np.int64)
    kept = 0
    for _, pattern, alice, bob in draw_blocks(seed, rounds, efficiency, bits, block):
        if alice is not None:
            pattern = np.compress(np.logical_and(alice, bob, out=alice), pattern)
        patterns[kept:kept + len(pattern)] = pattern
        counts += np.bincount(pattern.view(np.int64), minlength=1 << bits)
        kept += len(pattern)
    return patterns[:kept], counts


def same_basis(rows: np.ndarray) -> np.ndarray:
    """Whether the parties of each round chose equal bases (bool), read off
    the rounds' packed key rows (uint16): a same-basis round's second slot
    holds bits, any other's fillers. Masking the whole rows is faster than
    comparing every second byte."""
    return (rows & _SLOT2) != _SLOT2_FILLERS


def _picked(
    same: np.ndarray, picks: np.ndarray, ranked: int, done: int
) -> tuple[Optional[np.ndarray], int, int]:
    """Which of a block's coincident rounds the picks take: their positions
    among the block's coincident rounds (None if there are none), and the
    next block's ``ranked`` and ``done``. ``same`` flags the block's
    coincident same-basis rounds, ``ranked`` counts the batch's before the
    block, and ``done`` the picks below ``ranked``."""
    rank_end = ranked + int(np.count_nonzero(same))
    end = done + int(np.searchsorted(picks[done:], rank_end))
    hit = np.flatnonzero(same)[picks[done:end] - ranked] if end > done else None
    return hit, rank_end, end


def extract_keys(
    patterns: np.ndarray, picks: np.ndarray, key_rows: np.ndarray, counters: np.ndarray,
    width: int, both: bool, block: int,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The key of a batch, from blocks of ``block`` of the coincident
    rounds' ``patterns`` (:func:`coincident_patterns`): Alice's key bits,
    Bob's (None unless ``both``) and what the rounds verification checked
    add to each counter (int64, one per row of ``counters``).

    ``picks`` ranks the checked rounds among the coincident same-basis
    rounds, ascending; every other coincident round is a key round.
    ``key_rows`` holds each pattern's packed key row (two bytes held as one
    uint16), and ``counters`` each pattern's column of what it adds to each
    counter. The key has ``width`` bits, so every result is allocated once
    and filled a block at a time, and the rows of a block are gathered into
    one buffer. Which rounds the key holds is :func:`key_rounds`.
    """
    alice = np.empty(width, dtype=np.uint8)
    bob = np.empty(width, dtype=np.uint8) if both else None
    removed = np.zeros(len(counters), dtype=np.int64)
    buffer = np.empty(min(block, len(patterns)), dtype=np.uint16)
    ranked = done = bit = 0
    for lo in range(0, len(patterns), block):
        pattern = patterns[lo:lo + block]
        # Every pattern indexes key_rows, so clipping changes no index, and
        # unlike the default it writes the rows straight into the buffer.
        rows = key_rows.take(pattern, out=buffer[:len(pattern)], mode="clip")
        hit, ranked, end = _picked(same_basis(rows), picks, ranked, done)
        if hit is not None:
            removed += counters.take(pattern[hit], axis=1).sum(axis=1)
            # A row of fillers gives no key bit.
            rows[hit] = _FILLERS << 8 | _FILLERS
        done = end
        a, _ = key_bits(rows.view(np.uint8), both,
                        out=(alice[bit:], bob[bit:] if both else None))
        bit += len(a)
    return alice, bob, removed


def key_rounds(
    draws: tuple[int, int, float, int, int], picks: np.ndarray, count: int,
    key_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each key round's id (int64) and same-basis flag, in round order, of
    the batch whose rounds are ``draw_blocks(*draws)``, whose verification
    took ``picks`` (as :func:`extract_keys` takes them) and whose key has
    ``count`` rounds: the coincident rounds but the picked ones, derived
    block by block into arrays allocated once. ``key_rows`` holds each
    pattern's packed key row, as :func:`extract_keys` takes it. Both arrays
    are read-only, as :class:`hyperqkd.protocol.KeyBits` holds them."""
    ids = np.empty(count, dtype=np.int64)
    same = np.empty(count, dtype=bool)
    ranked = done = kept = 0
    for lo, pattern, alice, bob in draw_blocks(*draws):
        if alice is None:
            rid = np.arange(lo, lo + len(pattern))
        else:
            rid = np.flatnonzero(np.logical_and(alice, bob, out=alice))
            pattern = pattern.take(rid)
            rid += lo
        flags = same_basis(key_rows.take(pattern))
        hit, ranked, done = _picked(flags, picks, ranked, done)
        if hit is not None:
            rid, flags = np.delete(rid, hit), np.delete(flags, hit)
        ids[kept:kept + len(rid)] = rid
        same[kept:kept + len(rid)] = flags
        kept += len(rid)
    for arr in (ids, same):
        arr.flags.writeable = False
    return ids, same
