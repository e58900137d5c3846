"""The batch engine's lookup kernels against references outside them.

``protocol.partial_shuffle`` gives the verification picks of a partial
Fisher-Yates shuffle as array operations; :func:`reference_picks` is the
shuffle as a loop, one swap per step, holding only the slots it moved.
``montecarlo._round_table`` holds every round of an attack shape as one
column; each column is checked against the scalar ``run_round`` fed a
decision word whose top bits are that column's bit pattern, so the table
is not checked by the chain that built it, and on random words, which no
bit below the pattern may change. ``montecarlo._patterns`` holds what each column gives
a coincident round (its key bits, and what it adds to each counter:
sifting, mismatch, key bit errors, Eve's tallies and the detection strata);
each entry, and the detection stats ``_detection`` makes of the column, is
checked against the per-record reference of ``reference.py`` on the column's round under all four
detection states. The engine reads the same-basis flag off each round's
packed key row; that rule is checked against the table on every pattern.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from hyperqkd import (
    AttackConfig,
    AttackKind,
    BasisType,
    EveBasisStrategy,
    RandomSource,
    run_round,
    sift,
    verify_sample,
)
from hyperqkd import blocks, montecarlo
from hyperqkd.hilbert import LABELS
from hyperqkd.protocol import _FILLERS, key_bits, partial_shuffle


def reference_picks(n, uniforms):
    """The first ``len(uniforms)`` slots of the partial Fisher-Yates
    shuffle of ``range(n)``, one swap per step."""
    slots = {}
    for i, u in enumerate(uniforms.tolist()):
        j = i + min(int(u * (n - i)), n - i - 1)
        slots[i], slots[j] = slots.get(j, j), slots.get(i, i)
    return [slots[i] for i in range(len(uniforms))]


def test_picks_equal_the_loop_on_small_cases():
    rng = np.random.default_rng(20_000)
    for _ in range(20_000):
        n = int(rng.integers(1, 31))
        uniforms = rng.random(int(rng.integers(1, n + 1)))
        assert partial_shuffle(n, uniforms).tolist() == reference_picks(n, uniforms), n


@pytest.mark.parametrize("n, k", [(49_672, 4_968), (20_000, 19_800)])
def test_picks_equal_the_loop_on_large_cases(n, k):
    # A 10**5-round batch's verification, and a fraction of 0.99.
    uniforms = np.random.default_rng(n).random(k)
    picks = partial_shuffle(n, uniforms)
    assert picks.tolist() == reference_picks(n, uniforms)
    assert len(set(picks.tolist())) == k


def test_picks_take_every_edge_target():
    # Uniforms at 0 keep each slot; just below 1 take the last slot.
    n = 12
    assert partial_shuffle(n, np.zeros(n)).tolist() == list(range(n))
    top = np.full(n, np.nextafter(1.0, 0.0))
    assert partial_shuffle(n, top).tolist() == reference_picks(n, top)


def test_picks_bound_their_sort_keys():
    # The sort keys target * k + step must stay below 2**63.
    n, k = (2**63 - 1) // 3, 3
    top = np.full(k, np.nextafter(1.0, 0.0))
    assert partial_shuffle(n, top).tolist() == reference_picks(n, top)
    assert partial_shuffle(n, np.zeros(k)).tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="2\\*\\*63"):
        partial_shuffle(2**62, np.zeros(2))
    assert partial_shuffle(0, np.zeros(0)).tolist() == []


def test_verify_sample_picks_from_its_stream_in_order():
    groups = sift(run_round(i, None, 0.9, RandomSource.for_round(5, i)) for i in range(600))
    n = len(groups.same_basis)
    k = math.ceil(0.3 * n)
    report, consumed = verify_sample(groups, 0.3, RandomSource(17))
    rand = RandomSource(17)
    picks = reference_picks(n, np.array([rand.uniform() for _ in range(k)]))
    assert consumed == frozenset(groups.same_basis[i].round_id for i in picks)
    assert report.mismatches == sum(
        groups.same_basis[i].alice_outcome is not groups.same_basis[i].bob_outcome
        for i in picks
    )


class GivenDraws:
    """A RandomSource stand-in that hands out the given 64-bit draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def next_u64(self):
        self.used += 1
        return self.draws[self.used - 1]


# Every attack shape and the bits run_round reads of its decision word for
# each decision, in order: Eve's bases (random strategy only), her
# measurements, Alice's and Bob's bases, Alice's and Bob's measurements.
PARTIES = (1, 1, 2, 2)
SHAPES = [
    (None, PARTIES),
    (AttackConfig(AttackKind.SINGLE_INTERCEPT), (1, 2) + PARTIES),
    *((AttackConfig(AttackKind.SINGLE_INTERCEPT, EveBasisStrategy.FIXED_SAME, basis),
       (2,) + PARTIES) for basis in BasisType),
    (AttackConfig(AttackKind.DOUBLE_INTERCEPT), (1, 1, 2, 2) + PARTIES),
    *((AttackConfig(AttackKind.DOUBLE_INTERCEPT, strategy, basis), (2, 2) + PARTIES)
      for strategy in (EveBasisStrategy.FIXED_SAME, EveBasisStrategy.FIXED_DIFFERENT)
      for basis in BasisType),
]
#: Each shape's pattern width: the bits its rounds read of the decision word.
PATTERN_BITS = {attack: sum(widths) for attack, widths in SHAPES}


def shape_id(attack):
    if attack is None:
        return "none"
    return f"{attack.kind.value}-{attack.strategy.value}-{attack.fixed_basis.value}"


def round_labels(attack, word):
    """The label codes of the scalar round whose decision word is ``word``
    and whose two detections both succeed, at efficiency 1: Eve's, Alice's,
    Bob's."""
    rand = GivenDraws([word, 0, 0])
    rec = run_round(0, attack, 1.0, rand)
    assert rand.used == 3 and rec.coincident
    eve = () if rec.eve_trace is None else rec.eve_trace.outcomes
    return [LABELS.index(lab) for lab in (*eve, rec.alice_outcome, rec.bob_outcome)]


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
def test_round_table_equals_run_round(attack, widths):
    table = montecarlo._round_table(attack)
    eve_rows = 0 if attack is None else 1 if attack.kind is AttackKind.SINGLE_INTERCEPT else 2
    bits = sum(widths)
    assert table.dtype == np.int8
    assert table.shape == (eve_rows + 2, 2 ** bits)
    assert not table.flags.writeable
    for pattern in range(2 ** bits):
        # The pattern is the top bits of the round's decision word.
        assert table[:, pattern].tolist() == round_labels(attack, pattern << (64 - bits)), pattern


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=10))
def test_run_round_reads_the_top_bits_of_its_decision_word(words):
    # No decision reads a bit of the word below the pattern.
    for attack, widths in SHAPES:
        table = montecarlo._round_table(attack)
        for word in words:
            assert round_labels(attack, word) == table[:, word >> (64 - sum(widths))].tolist()


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
def test_pattern_tables_equal_reference(attack, widths):
    tables = montecarlo._patterns(attack)
    size = 2 ** sum(widths)
    assert tables.key_rows.dtype == np.uint16 and tables.key_rows.shape == (size,)
    assert tables.counters.dtype == np.int64 and tables.counters.shape == (8, size)
    assert not tables.key_rows.flags.writeable and not tables.counters.flags.writeable
    double = attack is not None and attack.kind is AttackKind.DOUBLE_INTERCEPT
    # Every pattern with each of the four detection states: code 4 * pattern
    # + 2 * Alice's detection + Bob's.
    codes = np.arange(4 * size, dtype=np.uint16)
    records = montecarlo._block_records(attack, 0, codes >> 2, codes & 2 > 0, codes & 1 > 0)
    for code, rec in enumerate(records):
        p = code >> 2
        assert (rec.alice_detected, rec.bob_detected) == (bool(code & 2), bool(code & 1))
        groups = sift([rec])
        alice, bob = ref.build_keys(groups)
        # Only a coincident round, code & 3 == 3, reaches the tables.
        assert rec.coincident == (code & 3 == 3)
        if not rec.coincident:
            assert groups.discarded == (rec,) and not len(alice)
            continue
        got = key_bits(tables.key_rows[p:p + 1].view(np.uint8), True)
        assert [b.tolist() for b in got] == [list(alice.bits), list(bob.bits)]
        # The counters the round adds to, each from the per-record reference.
        mismatch = rec.alice_outcome is not rec.bob_outcome
        want = [rec.same_basis, rec.same_basis and mismatch,
                sum(a != b for a, b in zip(alice.bits, bob.bits))]
        if attack is None:
            want += [0, 0, 0]
        else:
            known = ref.eve_knows(rec)
            quarters = round(4 * len(bob) * ref.eve_guess_accuracy([rec], bob))
            want += [known, known and rec.same_basis, quarters]
        if double and rec.same_basis:
            det = ref.detection_probability([rec])
            want += [det.same_bases_compared, det.same_bases_mismatches]
            # want[:2]: the round's same-basis count and mismatch count.
            assert montecarlo._detection(*want[:2], tables.counters[montecarlo._STRATA, p]) == det
        else:
            want += [0, 0]
        assert tables.counters[:, p].tolist() == [int(n) for n in want], p


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
@pytest.mark.parametrize("dtype", [np.uint64, np.uint16])
def test_same_basis_bits_equal_the_table(attack, widths, dtype):
    patterns = np.arange(1 << sum(widths), dtype=dtype)
    tables = montecarlo._patterns(attack)
    got = blocks.same_basis(tables.key_rows.take(patterns))
    assert got.tolist() == tables.counters[montecarlo._SAME].astype(bool).tolist()


def compress_key_bits(rows, both):
    """The key bits as one compress of the slots that are not fillers,
    split into Alice's and Bob's."""
    packed = rows.ravel()
    packed = np.compress(packed != _FILLERS, packed)
    return packed & 3, packed >> 2 if both else None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.sampled_from([0, 1, 7, 300]),
       fillers=st.sampled_from([0.0, 0.5, 1.0]), both=st.booleans(), use_out=st.booleans())
def test_key_bits_equal_the_compress_of_the_key_slots(seed, count, fillers, both, use_out):
    # Random packed rows, of which a share of the slots (all of them at 1.0:
    # rows of fillers only) hold the fillers; every other slot is one of
    # the 15 other bytes of two two-bit fields.
    rand = np.random.default_rng(seed)
    slots = rand.choice([v for v in range(16) if v != _FILLERS], size=2 * count)
    slots[rand.random(2 * count) < fillers] = _FILLERS
    rows = slots.astype(np.uint8).reshape(count, 2)
    want = compress_key_bits(rows, both)
    out = (None, None)
    if use_out:
        # Arrays longer than the key, whose tail the call must leave alone.
        out = tuple(np.full(2 * count + 3, 0xFF, dtype=np.uint8) for _ in range(2))
        out = out if both else (out[0], None)
    got = key_bits(rows, both, out=out)
    assert got[0].dtype == np.uint8 and got[0].tolist() == want[0].tolist()
    if both:
        assert got[1].dtype == np.uint8 and got[1].tolist() == want[1].tolist()
    else:
        assert got[1] is None
    for arr, bits in zip(out, got):
        if arr is not None:
            # The bits are the start of the array given.
            assert bits.base is arr
            assert (arr[len(bits):] == 0xFF).all()


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(range(len(SHAPES))), seed=st.integers(0, 2**64 - 1),
       rounds=st.integers(1, 1500), efficiency=st.sampled_from([1.0, 0.9, 0.5]),
       fraction=st.sampled_from([0.0, 0.1, 0.9]), block=st.sampled_from([1, 3, 128, 16_384]))
def test_removed_counters_equal_the_checked_rounds_histogram(
        shape, seed, rounds, efficiency, fraction, block):
    # What the checked rounds add to each counter, summed block by block
    # by extract_keys, against the counters dotted with the histogram of
    # the checked rounds' patterns.
    attack, widths = SHAPES[shape]
    tables = montecarlo._patterns(attack)
    patterns, counts = blocks.coincident_patterns(seed, rounds, efficiency, sum(widths), block)
    same = patterns[tables.counters[montecarlo._SAME].take(patterns) > 0]
    k = math.ceil(fraction * len(same))
    picks = np.sort(np.random.default_rng(seed).choice(len(same), size=k, replace=False))
    width = len(patterns) + len(same) - 2 * k
    alice, bob, removed = blocks.extract_keys(
        patterns, picks, tables.key_rows, tables.counters, width, True, block)
    want = tables.counters @ np.bincount(same[picks], minlength=1 << sum(widths))
    assert removed.dtype == np.int64 and removed.tolist() == want.tolist()
    assert len(alice) == len(bob) == width
