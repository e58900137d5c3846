"""The counter-based draws and the integer rules that read decisions off them.

``run_batch`` computes each round's raw 64-bit draws in blocks and decides
bases, measurement outcomes and detections on the integers. The scalar
``run_round`` reads its bases and outcomes off a ``DecisionWord`` and
compares ``RandomSource.uniform()`` with the efficiency. These tests pin
the block draws to the scalar stream (the decision word, which skips the
mix's last step, in its top 31 bits), the bits a ``DecisionWord`` and
``RandomSource.bits`` hand out, and each integer rule to its float
comparison, on the words where they could part.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperqkd.rng import (
    DecisionWord, RandomSource, below_threshold, round_draws, stream_uniforms,
)

U64 = st.integers(0, 2**64 - 1)
# Probabilities in (0, 1], from the smallest subnormal up.
PROBABILITIES = st.floats(min_value=5e-324, max_value=1.0)
EDGE_PROBABILITIES = [1.0, 0.9, 0.5, 0.05, math.nextafter(1.0, 0.0), 5e-324]


def uniform_of(word):
    """``RandomSource.uniform`` of a stream whose next raw draw is ``word``."""
    return RandomSource.uniform(SimpleNamespace(next_u64=lambda: word))


@settings(max_examples=60, deadline=None)
@given(
    seed=U64,
    round_ids=st.lists(U64, min_size=1, max_size=20),
    count=st.integers(1, 12),
)
def test_block_draws_equal_scalar_stream(seed, round_ids, count):
    blocks = [d.copy() for d in round_draws(seed, np.array(round_ids, dtype=np.uint64), count)]
    assert len(blocks) == count
    for k, rid in enumerate(round_ids):
        rand = RandomSource.for_round(seed, rid)
        want = [rand.next_u64() for _ in range(count)]
        assert [int(block[k]) for block in blocks] == want
    assert all(block.dtype == np.uint64 for block in blocks)


@settings(max_examples=60, deadline=None)
@given(
    seed=U64,
    round_ids=st.lists(U64, min_size=1, max_size=20),
    top=st.integers(0, 12),
    full=st.integers(0, 3),
)
def test_top_draws_equal_scalar_stream_in_their_top_31_bits(seed, round_ids, top, full):
    # The engine's decision word skips the mix's last step; its detection
    # draws, after it, do not.
    ids = np.array(round_ids, dtype=np.uint64)
    blocks = [d.copy() for d in round_draws(seed, ids, top + full, top=top)]
    assert len(blocks) == top + full
    for k, rid in enumerate(round_ids):
        rand = RandomSource.for_round(seed, rid)
        want = [rand.next_u64() for _ in range(top + full)]
        got = [int(block[k]) for block in blocks]
        assert [x >> 33 for x in got[:top]] == [x >> 33 for x in want[:top]]
        assert got[top:] == want[top:]


def test_draws_fill_the_callers_buffers():
    seed, ids = 2**64 - 1, np.array([0, 7, 2**64 - 1, 12], dtype=np.uint64)
    want = [d.copy() for d in round_draws(seed, ids, 6, top=4)]
    buffers = np.full((3, len(ids)), 0xDEAD, dtype=np.uint64)
    # Twice over the same buffers: nothing is left over from the first use.
    for _ in range(2):
        got = []
        for draw in round_draws(seed, ids, 6, top=4, buffers=buffers):
            assert np.shares_memory(draw, buffers[1])
            got.append(draw.copy())
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


@settings(max_examples=100, deadline=None)
@given(word=U64, widths=st.lists(st.integers(1, 4), max_size=24))
def test_decision_word_hands_out_its_bits_most_significant_first(word, widths):
    decisions = DecisionWord(word)
    used = read = 0
    for width in widths:
        if used + width > 64:
            with pytest.raises(ValueError):
                decisions.bits(width)
            break
        got = decisions.bits(width)
        assert 0 <= got < 2**width
        used += width
        read = read << width | got
    # The bits read, concatenated in order, are the word's top bits.
    assert read == word >> (64 - used)


def test_decision_word_rejects_widths_it_cannot_give():
    decisions = DecisionWord(2**64 - 1)
    with pytest.raises(ValueError):
        decisions.bits(0)
    assert decisions.bits(64) == 2**64 - 1
    with pytest.raises(ValueError):
        decisions.bits(1)


@pytest.mark.parametrize("width", [1, 2, 12, 64])
def test_random_source_bits_are_the_top_bits_of_one_draw(width):
    rand, plain = RandomSource.for_round(9, 4), RandomSource.for_round(9, 4)
    for _ in range(5):
        assert rand.bits(width) == plain.next_u64() >> (64 - width)


def test_stream_uniforms_equal_scalar_stream():
    rand = RandomSource.for_stream(2**64 - 1, 7)
    assert stream_uniforms(2**64 - 1, 7, 50).tolist() == [rand.uniform() for _ in range(50)]


def _boundary_words(p):
    """Draws around the threshold: the largest and smallest words whose top
    53 bits are ceil(p * 2**53) - 1 and ceil(p * 2**53)."""
    top = math.ceil(p * 2.0**53)
    words = [(top - 1) << 11, ((top - 1) << 11) | 0x7FF, top << 11, (top << 11) | 0x7FF]
    return [w for w in words if 0 <= w < 2**64]


def _assert_threshold_rule(p):
    threshold = below_threshold(p)
    words = _boundary_words(p)
    assert words
    for word in words:
        assert (word < threshold) == (uniform_of(word) < p), (p, hex(word))
    # The word T - 1 passes and T (when it is a draw at all) fails.
    assert uniform_of(((threshold >> 11) - 1) << 11) < p
    if threshold < 2**64:
        assert not uniform_of(threshold) < p


@pytest.mark.parametrize("p", EDGE_PROBABILITIES, ids=repr)
def test_detection_rule_on_boundary_words(p):
    _assert_threshold_rule(p)


@settings(max_examples=200, deadline=None)
@given(p=PROBABILITIES)
def test_detection_rule_on_boundary_words_any_probability(p):
    _assert_threshold_rule(p)


@settings(max_examples=200, deadline=None)
@given(p=PROBABILITIES, word=U64)
def test_detection_rule_on_any_word(p, word):
    assert (word < below_threshold(p)) == (uniform_of(word) < p)


def test_threshold_at_efficiency_one_passes_every_draw():
    assert below_threshold(1.0) == 2**64
    assert below_threshold(np.float32(0.5)) == below_threshold(0.5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_bits_decide_quarters_and_halves(k):
    # x >> 62 < k exactly when uniform < k/4; the top bit is the k = 2 case.
    for word in (k << 62, (k << 62) - 1, (k << 62) - 2048, (k << 62) + 2047):
        assert ((word >> 62) < k) == (uniform_of(word) < k / 4)
    for word in (2**63 - 1, 2**63 - 2048, 2**63, 2**64 - 1):
        assert (word >> 63 == 0) == (uniform_of(word) < 0.5)
