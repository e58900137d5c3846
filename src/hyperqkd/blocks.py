"""The batch engine's block loops, in plain numpy on one block at a time.

:func:`draw_codes` computes a batch's rounds block by block, each round's
raw 64-bit draws in the stream layout of :mod:`hyperqkd.rng`, and reads
every decision off them as an integer: all of the round's bases and
measurement outcomes, its pattern, off the top bits of its decision word
(draw 0) with one shift, and each detection off a comparison of the
party's field of the word's low 52 bits with the efficiency's threshold;
the party's own draw (1 for Alice, 2 for Bob) is computed only for a round
whose field ties with the threshold, about once in 2**26. Each round
becomes one uint16 code (see
:class:`hyperqkd.montecarlo._Rounds`), and each block's codes are counted
into the batch's histogram of codes. :func:`extract_keys` then gathers the
coincident rounds' packed key rows from one pattern table, block by block,
reads which are same-basis rounds off the rows, turns the verified rounds'
rows into fillers, and :func:`key_bits` unpacks each block's rows into the
keys: the key bits are all it writes per round. Which rounds the key holds
is :func:`key_rounds`, computed from the codes and the picks only when a
key's rounds are asked for.

:func:`draw_codes` counts a block's codes as uint64 viewed as int64,
numpy's index type, so its histogram converts no indices. Beyond what a
call returns, its memory is temporaries of one block, whatever the number
of rounds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .protocol import _FILLERS, key_bits
from .rng import (
    _FIELD_MASK, DETECTION_BITS, detection_threshold, detection_uniform, round_draw,
)


def draw_codes(
    seed: int, rounds: int, efficiency: float, bits: int, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every round's code (uint16), in round order, and the histogram of the
    codes (int64, one bin per code), from blocks of ``block`` rounds.

    A round's pattern is the top ``bits`` bits of its decision word; it goes
    above the round's two detection bits. Below efficiency 1 each detection
    compares the party's field of the word with the field the threshold
    ties with, and only a tied round computes the party's own draw; at
    efficiency 1 every detection succeeds and only the word's top bits are
    computed. MemoryError if the codes cannot be one array.
    """
    detect = efficiency < 1.0
    bound, tie = detection_threshold(efficiency)
    tie = np.uint64(tie)
    if 2 * rounds > np.iinfo(np.intp).max:
        # numpy refuses an array this large with ValueError.
        raise MemoryError(f"{rounds} codes do not fit in one array")
    codes = np.empty(rounds, dtype=np.uint16)
    counts = np.zeros(4 << bits, dtype=np.int64)
    for lo in range(0, rounds, block):
        ids = np.arange(lo, min(lo + block, rounds), dtype=np.uint64)
        word = round_draw(seed, ids, 0, exact=detect)
        if detect:
            c = word >> (64 - bits)
            # In place, which took 5 % off draw_codes at efficiency 0.9: the
            # word is not read after its pattern and Alice's field, nor a
            # field after its ties.
            alice = word >> DETECTION_BITS
            alice &= _FIELD_MASK
            bob = np.bitwise_and(word, _FIELD_MASK, out=word)
            for j, field in enumerate((alice, bob), 1):
                c <<= 1
                tied = field == tie
                if tied.any():
                    # The party's own draw decides a tie.
                    draw = round_draw(seed, ids[tied], j)
                    c[tied] |= detection_uniform(field[tied], draw) < bound
                c |= np.less(field, tie, out=field)
        else:
            # The pattern and two more bits, which both detections set.
            c = word >> (62 - bits)
            c |= 3
        codes[lo:lo + block] = c
        counts += np.bincount(c.view(np.int64), minlength=4 << bits)
    return codes, counts


def same_basis(code: np.ndarray) -> np.ndarray:
    """Whether the parties of each round chose equal bases (bool), read off
    the rounds' codes (uint16 or uint64).

    Alice's and Bob's bases are the last one-bit fields of every
    pattern, in ``run_round``'s order, above the two two-bit measurement
    fields and the two detection bits: their bits are bits 7 and 6 of the
    code.
    """
    return ((code ^ code >> 1) & 1 << 6) == 0


def extract_keys(
    codes: np.ndarray, picks: np.ndarray, key_rows: np.ndarray,
    width: int, both: bool, block: int,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The key of a batch, from blocks of ``block`` of its ``codes``:
    Alice's key bits, Bob's (None unless ``both``) and the patterns of the
    rounds verification checked.

    ``picks`` ranks the checked rounds among the coincident same-basis
    rounds, ascending; every other coincident round is a key round.
    ``key_rows`` holds each pattern's packed key row (two bytes held as one
    uint16). The key has ``width`` bits, so every result is allocated once
    and filled a block at a time. Which rounds the key holds is
    :func:`key_rounds`.
    """
    alice = np.empty(width, dtype=np.uint8)
    bob = np.empty(width, dtype=np.uint8) if both else None
    checked = np.empty(len(picks), dtype=np.int64)
    ranked = done = bit = 0
    for lo in range(0, len(codes), block):
        c = codes[lo:lo + block]
        # The coincident rounds' codes: both detection bits set.
        c = np.compress(c & 3 == 3, c)
        rows = key_rows.take(c >> 2)
        # A same-basis round's second slot holds bits, any other's fillers.
        same = rows.view(np.uint8)[1::2] != _FILLERS
        # The picks that rank among this block's coincident same-basis rounds.
        rank_end = ranked + int(np.count_nonzero(same))
        end = done + int(np.searchsorted(picks[done:], rank_end))
        if end > done:
            hit = np.flatnonzero(same)[picks[done:end] - ranked]
            checked[done:end] = c[hit] >> 2
            # A row of fillers gives no key bit.
            rows[hit] = _FILLERS << 8 | _FILLERS
        ranked, done = rank_end, end
        a, b = key_bits(rows.view(np.uint8), both)
        alice[bit:bit + len(a)] = a
        if both:
            bob[bit:bit + len(b)] = b
        bit += len(a)
    return alice, bob, checked


def key_rounds(codes: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key round's id (int64) and same-basis flag, in round order, of
    the batch of ``codes`` and ``picks`` that :func:`extract_keys` takes:
    the coincident rounds but the picked ones. Both arrays are read-only,
    as :class:`hyperqkd.protocol.KeyBits` holds them."""
    ids = np.flatnonzero(codes & 3 == 3)
    same = same_basis(codes.take(ids))
    dropped = np.flatnonzero(same)[picks]
    rounds = np.delete(ids, dropped), np.delete(same, dropped)
    for arr in rounds:
        arr.flags.writeable = False
    return rounds
