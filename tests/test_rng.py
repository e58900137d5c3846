"""The counter-based draws and the integer rules that read decisions off them.

``run_batch`` computes each round's raw 64-bit draws in blocks and decides
bases, measurement outcomes and detections on the integers. The scalar
``run_round`` reads its bases and outcomes off a ``DecisionWord``'s top
bits and each detection off the word's low bits and, on a tie, the
party's own draw. These tests pin the scalar stream to SplitMix64's
published outputs and each round to its three outputs of one batch
stream, the block draws to the scalar stream (the decision word, which
skips the mix's last step at efficiency 1, in its top 31 bits), the bits
a ``DecisionWord`` and ``RandomSource.bits`` hand out, and each integer
rule to its float comparison, on the words where they could part.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperqkd.protocol import run_round
from hyperqkd.rng import (
    DECISION_BITS, DRAWS_PER_ROUND, DecisionWord, RandomSource, below_threshold,
    decision_words, detection_threshold, mix64, round_draw, round_offsets, stream_uniforms,
)

from test_kernels import SHAPES, GivenDraws, shape_id

U64 = st.integers(0, 2**64 - 1)
# Probabilities in (0, 1], from the smallest subnormal up.
PROBABILITIES = st.floats(min_value=5e-324, max_value=1.0)
EDGE_PROBABILITIES = [1.0, 0.9, 0.5, 0.05, math.nextafter(1.0, 0.0), 5e-324]


def uniform_of(word):
    """``RandomSource.uniform`` of a stream whose next raw draw is ``word``."""
    return RandomSource.uniform(SimpleNamespace(next_u64=lambda: word))


def test_random_source_gives_splitmix64s_published_outputs():
    # The first outputs of SplitMix64 seeded with 1234567, as published
    # with the generator's reference code.
    rand = RandomSource(1234567)
    assert [rand.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


@settings(max_examples=60, deadline=None)
@given(seed=U64, rounds=st.integers(1, 40))
def test_round_i_owns_outputs_3i_plus_1_to_3i_plus_3_of_one_batch_stream(seed, rounds):
    batch = RandomSource(mix64(seed))
    stream = [batch.next_u64() for _ in range(DRAWS_PER_ROUND * rounds)]
    ids = np.arange(rounds, dtype=np.uint64)
    blocks = [round_draw(seed, ids, j) for j in range(DRAWS_PER_ROUND)]
    for i in range(rounds):
        rand = RandomSource.for_round(seed, i)
        want = stream[DRAWS_PER_ROUND * i:DRAWS_PER_ROUND * (i + 1)]
        assert [rand.next_u64() for _ in range(DRAWS_PER_ROUND)] == want
        assert [int(block[i]) for block in blocks] == want


@pytest.mark.parametrize("efficiency", [1.0, 0.9])
@pytest.mark.parametrize("attack", [a for a, _ in SHAPES], ids=shape_id)
def test_run_round_reads_exactly_its_rounds_draws(attack, efficiency):
    # A round that read a fourth draw would leave its stream inside the next
    # round's draws, and one that read two would leave it short of them. The
    # mix is a bijection, so equal next draws are equal states.
    for seed, i in [(0, 0), (5, 1), (2**64 - 1, 2**40), (17, 2**64 - 1)]:
        rand = RandomSource.for_round(seed, i)
        run_round(i, attack, efficiency, rand)
        assert rand.next_u64() == RandomSource.for_round(seed, i + 1).next_u64()


@pytest.mark.parametrize("j", [-1, DRAWS_PER_ROUND])
def test_round_draw_rejects_another_rounds_draws(j):
    with pytest.raises(ValueError):
        round_draw(1, np.arange(4, dtype=np.uint64), j)


@settings(max_examples=60, deadline=None)
@given(seed=U64, round_ids=st.lists(U64, min_size=1, max_size=20), exact=st.booleans())
def test_block_draws_equal_scalar_stream(seed, round_ids, exact):
    # The engine's decision word at efficiency 1 skips the mix's last step,
    # so it equals the scalar stream's in its top 31 bits only.
    ids = np.array(round_ids, dtype=np.uint64)
    blocks = [round_draw(seed, ids, j, exact) for j in range(DRAWS_PER_ROUND)]
    assert all(block.dtype == np.uint64 for block in blocks)
    drop = 0 if exact else 33
    for k, rid in enumerate(round_ids):
        rand = RandomSource.for_round(seed, rid)
        want = [rand.next_u64() >> drop for _ in range(DRAWS_PER_ROUND)]
        assert [int(block[k]) >> drop for block in blocks] == want


@settings(max_examples=20, deadline=None)
@given(seed=U64, exact=st.booleans())
def test_block_decision_words_equal_round_draw(seed, exact):
    # A batch's blocks of 1, 3 and 128 rounds, 301 rounds in all, so that
    # the last block of 3 and of 128 is partial; and the last 200 rounds of
    # the largest batch, whose lo * 3 * GAMMA is far past 2**64 and wraps.
    for first, rounds in ((0, 301), (2**64 // 3 - 200, 200)):
        for block in (1, 3, 128):
            offsets = round_offsets(min(block, rounds))
            assert offsets.dtype == np.uint64
            for lo in range(first, first + rounds, block):
                got = decision_words(seed, offsets[:first + rounds - lo], lo, exact)
                ids = np.arange(lo, min(lo + block, first + rounds), dtype=np.uint64)
                assert got.dtype == np.uint64
                assert got.tolist() == round_draw(seed, ids, 0, exact).tolist()


@settings(max_examples=100, deadline=None)
@given(word=U64, widths=st.lists(st.integers(1, 4), max_size=8))
def test_decision_word_hands_out_its_bits_most_significant_first(word, widths):
    decisions = DecisionWord(word)
    used = read = 0
    for width in widths:
        if used + width > DECISION_BITS:
            with pytest.raises(ValueError):
                decisions.bits(width)
            break
        got = decisions.bits(width)
        assert 0 <= got < 2**width
        used += width
        read = read << width | got
    # The bits read, concatenated in order, are the word's top bits.
    assert read == word >> (64 - used)


@settings(max_examples=100, deadline=None)
@given(words=st.lists(U64, min_size=1, max_size=8),
       cuts=st.sets(st.integers(1, DECISION_BITS)))
def test_decision_word_reads_an_array_as_its_elements(words, cuts):
    # Cut points in 1 to 12 give every sequence of widths summing to at
    # most 12.
    cuts = sorted(cuts)
    widths = [hi - lo for lo, hi in zip([0, *cuts], cuts)]
    array = DecisionWord(np.array(words, dtype=np.uint64))
    scalars = [DecisionWord(word) for word in words]
    for width in widths:
        got = array.bits(width)
        assert got.dtype == np.uint64
        assert got.tolist() == [scalar.bits(width) for scalar in scalars]
    assert array.bits_read == sum(widths) == scalars[0].bits_read
    with pytest.raises(ValueError):
        array.bits(DECISION_BITS - sum(widths) + 1)
    assert array.bits_read == sum(widths)


def test_decision_word_rejects_widths_it_cannot_give():
    decisions = DecisionWord(2**64 - 1)
    with pytest.raises(ValueError):
        decisions.bits(0)
    assert decisions.bits(DECISION_BITS) == 2**DECISION_BITS - 1
    with pytest.raises(ValueError):
        decisions.bits(1)


def test_decision_word_hands_out_no_detection_bit():
    # The top 12 bits are the decisions'; the low 52 are the two detection
    # fields, which no decision may read.
    assert DECISION_BITS == 12
    word = 0xABC << 52 | 0x2AAAAAA << 26 | 0x1555555
    decisions = DecisionWord(word)
    with pytest.raises(ValueError):
        decisions.bits(13)
    assert decisions.bits(4) == 0xA
    with pytest.raises(ValueError):
        decisions.bits(9)
    assert decisions.bits(8) == 0xBC
    with pytest.raises(ValueError):
        decisions.bits(1)
    assert decisions.detection_fields() == (0x2AAAAAA, 0x1555555)


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
    # Every field is below the tie field, so no draw decides a detection.
    assert detection_threshold(1.0) == (2**53, 2**26)


@settings(max_examples=300, deadline=None)
@given(p=PROBABILITIES, word=U64, draws=st.tuples(U64, U64))
def test_run_round_detects_on_a_53_bit_uniform(p, word, draws):
    # Each party's uniform is its 26-bit field of the decision word (Alice's
    # bits 26-51, Bob's 0-25) above the top 27 bits of its own draw, times
    # 2**-53: the comparison with p is exact in floats.
    fields = (word >> 26 & (2**26 - 1), word & (2**26 - 1))
    want = [(f * 2**27 + (d >> 37)) * 2.0**-53 < p for f, d in zip(fields, draws)]
    rand = GivenDraws([word, *draws])
    rec = run_round(0, None, p, rand)
    assert rand.used == 3
    assert [rec.alice_detected, rec.bob_detected] == want


@pytest.mark.parametrize("p", EDGE_PROBABILITIES, ids=repr)
def test_detection_ties_go_to_the_draw(p):
    # A field equal to the tie field is decided by the draw's top 27 bits;
    # one below it is detected and one above it is not, whatever the draw.
    bound, tie = detection_threshold(p)
    assert bound == below_threshold(p) >> 11 and tie == bound >> 27
    rest = bound & (2**27 - 1)
    for field, draw, want in [
        (tie, (rest - 1) << 37 | (2**37 - 1), True),
        (tie, rest << 37, False),
        (tie - 1, 2**64 - 1, True),
        (tie + 1, 0, False),
    ]:
        if not 0 <= field < 2**26 or not 0 <= draw < 2**64:
            continue
        rec = run_round(0, None, p, GivenDraws([field << 26 | field, draw, draw]))
        assert (rec.alice_detected, rec.bob_detected) == (want, want), (hex(field), hex(draw))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_bits_decide_quarters_and_halves(k):
    # x >> 62 < k exactly when uniform < k/4; the top bit is the k = 2 case.
    for word in (k << 62, (k << 62) - 1, (k << 62) - 2048, (k << 62) + 2047):
        assert ((word >> 62) < k) == (uniform_of(word) < k / 4)
    for word in (2**63 - 1, 2**63 - 2048, 2**63, 2**64 - 1):
        assert (word >> 63 == 0) == (uniform_of(word) < 0.5)
