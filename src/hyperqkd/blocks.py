"""The batch engine's block loops, each in buffers allocated once per call.

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
into the batch's histogram of codes. :func:`extract_keys` then takes the
verified rounds out of the key and gathers the key rounds' flags and packed
key rows from one pattern table, block by block, the rows by the key
rounds' patterns only; :func:`key_bits` unpacks each block's rows straight
into the keys.

Every block reuses its call's buffers: the draws' states, draws and scratch
(:func:`hyperqkd.rng.round_draws` fills buffers its caller owns), the
block's codes and its flags. :func:`draw_codes` counts a block's codes
widened to uint64 and viewed as int64, numpy's index type, so its
histogram converts no indices. Beyond what a call returns, its
memory is these buffers and temporaries of one block, whatever the number
of rounds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .protocol import key_bits
from .rng import (
    _FIELD_MASK, DETECTION_BITS, detection_threshold, detection_uniform, round_draws,
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
    computed.
    """
    detect = efficiency < 1.0
    bound, tie = detection_threshold(efficiency)
    tie = np.uint64(tie)
    codes = np.empty(rounds, dtype=np.uint16)
    block = min(block, rounds)
    ids = np.arange(block, dtype=np.uint64)
    c, *buffers = np.empty((4, block), dtype=np.uint64)
    tied = np.empty(block, dtype=bool)
    for lo in range(0, rounds, block):
        if rounds - lo < block:
            # The last block is short: so are its views of the buffers.
            ids, c, tied, *buffers = (b[:rounds - lo] for b in (ids, c, tied, *buffers))
        word = next(round_draws(seed, ids, 1, top=1 - detect, buffers=buffers))
        if detect:
            np.right_shift(word, 64 - bits, out=c)
            # The draw's scratch buffer is free once the draw is made, and
            # the word once its pattern and Alice's field are read.
            alice = np.right_shift(word, DETECTION_BITS, out=buffers[2])
            alice &= _FIELD_MASK
            bob = np.bitwise_and(word, _FIELD_MASK, out=word)
            for j, field in enumerate((alice, bob), 1):
                c <<= 1
                if np.equal(field, tie, out=tied).any():
                    # The party's own draw decides a tie.
                    at = np.flatnonzero(tied)
                    *_, draw = round_draws(seed, ids[at], j + 1)
                    c[at] |= detection_uniform(field[at], draw) < bound
                c |= np.less(field, tie, out=field)
        else:
            # The pattern and two more bits, which both detections set.
            np.right_shift(word, 62 - bits, out=c)
            c |= 3
        codes[lo:lo + len(c)] = c
        block_counts = np.bincount(c.view(np.int64), minlength=4 << bits)
        if lo:
            counts += block_counts
        else:
            counts = block_counts
        ids += np.uint64(block)
    return codes, counts


def same_basis(code: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Whether the parties of each round chose equal bases, written to
    ``out`` (bool) and read off the rounds' codes (uint16 or uint64;
    ``scratch`` has their dtype and length).

    Alice's and Bob's bases are the last one-bit fields of every
    pattern, in ``run_round``'s order, above the two two-bit measurement
    fields and the two detection bits: their bits are bits 7 and 6 of the
    code.
    """
    np.right_shift(code, 1, out=scratch)
    scratch ^= code
    scratch &= 1 << 6
    return np.equal(scratch, 0, out=out)


def extract_keys(
    codes: np.ndarray, picks: np.ndarray, key_rows: np.ndarray,
    rounds: int, width: int, both: bool, block: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The key of a batch, from blocks of ``block`` of its ``codes``:
    whether each round is a key round (bool, one per round), the key rounds'
    same-basis flags, Alice's key bits, Bob's (None unless ``both``) and the
    patterns of the rounds verification checked.

    ``picks`` ranks the checked rounds among the coincident same-basis
    rounds, ascending; every other coincident round is a key round.
    ``key_rows`` holds each pattern's packed key row (two bytes held as one
    uint16). The key has ``rounds`` rounds and ``width`` bits, so every
    result but the first is filled in place, a block at a time.
    """
    in_key = np.empty(len(codes), dtype=bool)
    same = np.empty(rounds, dtype=bool)
    alice = np.empty(width, dtype=np.uint8)
    bob = np.empty(width, dtype=np.uint8) if both else None
    checked = np.empty(len(picks), dtype=np.int64)
    block = min(block, len(codes))
    scratch = np.empty(block, dtype=np.uint16)
    same_flags = np.empty(block, dtype=bool)
    ranked = done = at = bit = 0
    for lo in range(0, len(codes), block):
        hi = min(lo + block, len(codes))
        c, key = codes[lo:hi], in_key[lo:hi]
        t, sb = scratch[:hi - lo], same_flags[:hi - lo]
        # Coincident: both detection bits set.
        np.bitwise_and(c, 3, out=t)
        np.equal(t, 3, out=key)
        same_basis(c, sb, t)
        sb &= key
        # The picks that rank among this block's coincident same-basis rounds.
        rank_end = ranked + int(np.count_nonzero(sb))
        end = done + int(np.searchsorted(picks[done:], rank_end))
        if end > done:
            hit = np.flatnonzero(sb).take(picks[done:end] - ranked)
            key[hit] = False
            checked[done:end] = c.take(hit) >> 2
        ranked, done = rank_end, end
        local = np.flatnonzero(key)
        stop = at + len(local)
        # Given out, take buffers its result in its default mode "raise";
        # local's indices are in range, so "clip" writes in place.
        sb.take(local, out=same[at:stop], mode="clip")
        a, _ = key_bits(key_rows.take(c.take(local) >> 2).view(np.uint8),
                        out=(alice[bit:], bob[bit:] if both else None))
        at, bit = stop, bit + len(a)
    return in_key, same, alice, bob, checked
