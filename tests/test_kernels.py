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
The key pass keys each draw block from the block table alone
(``montecarlo._block_slices`` and ``_block_keys``); every block, built
last first, is checked against its slices of one whole pass.
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
from hyperqkd import montecarlo
from hyperqkd.hilbert import LABELS
from hyperqkd.protocol import _FILLERS, FILLER_ROW, key_bits, partial_shuffle, same_basis
from hyperqkd.rng import draw_blocks


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
        got = key_bits(tables.key_rows[p:p + 1], True)
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
    got = same_basis(tables.key_rows.take(patterns))
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
    got = key_bits(rows.view(np.uint16).ravel(), both, out=out)
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
    # extract_keys gives the checked rounds' patterns, gathered block by
    # block along the block table; what they add to each counter, the
    # counters dotted with their histogram as run_batch takes it, against
    # the sum of their counter columns.
    attack, widths = SHAPES[shape]
    tables = montecarlo._patterns(attack)
    patterns, counts, table = montecarlo.coincident_patterns(
        seed, rounds, efficiency, sum(widths), block, tables.counters[montecarlo._SAME])
    same = patterns[tables.counters[montecarlo._SAME].take(patterns) > 0]
    assert table[:, -1].tolist() == [len(patterns), len(same)]
    k = math.ceil(fraction * len(same))
    picks = np.sort(np.random.default_rng(seed).choice(len(same), size=k, replace=False))
    alice, bob, checked = montecarlo.extract_keys(
        patterns, picks, table, tables.key_rows, True)
    assert checked.tolist() == same[picks].tolist()
    removed = tables.counters @ np.bincount(checked, minlength=1 << sum(widths))
    want = tables.counters.take(same[picks], axis=1).sum(axis=1)
    assert removed.dtype == np.int64 and removed.tolist() == want.tolist()
    assert len(alice) == len(bob) == len(patterns) + len(same) - 2 * k


@pytest.mark.parametrize("block", [1, 3, 128, 16_384])
@pytest.mark.parametrize("efficiency", [1.0, 0.9, 0.5])
@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
def test_each_block_is_keyed_from_the_table_alone(attack, widths, efficiency, block):
    # The blocks are visited last first, each built from the block table,
    # the picks and its own rounds, with nothing carried from another
    # block; each must equal its slices of one whole pass. Every batch of
    # blocks longer than one round ends in a partial block.
    tables = montecarlo._patterns(attack)
    draws = (block, 5 * block + 301, efficiency, sum(widths), block)
    patterns, _, table = montecarlo.coincident_patterns(*draws, tables.counters[montecarlo._SAME])
    same_n = int(table[1, -1])
    picks = np.sort(np.random.default_rng(block).choice(same_n, size=same_n // 3, replace=False))
    alice, bob, checked = montecarlo.extract_keys(patterns, picks, table, tables.key_rows, True)
    ids, flags = montecarlo.key_rounds(draws, picks, table, tables.key_rows)
    # Each draw block's coincident rounds' ids, copied before the next
    # block is drawn over them.
    drawn = [lo + (np.arange(len(pattern)) if a is None else np.flatnonzero(a & b))
             for lo, pattern, a, b in draw_blocks(*draws)]
    slices = montecarlo._block_slices(table, picks)
    assert len(slices) == len(drawn) == table.shape[1] - 1
    for (rounds, picked, kept, bits, ranked), rid in reversed(list(zip(slices, drawn))):
        pattern = patterns[rounds]
        rows, hit = montecarlo._block_keys(pattern, picks[picked] - ranked, tables.key_rows)
        assert len(pattern) == len(rid) and len(hit) == len(picks[picked])
        block_alice, block_bob = key_bits(rows, True)
        assert block_alice.tolist() == alice[bits].tolist()
        assert block_bob.tolist() == bob[bits].tolist()
        assert pattern[hit].tolist() == checked[picked].tolist()
        # A checked round's row is the only filler row; every other
        # coincident round is a key round.
        keep = rows != FILLER_ROW
        assert np.flatnonzero(~keep).tolist() == hit.tolist()
        assert ids[kept].tolist() == rid[keep].tolist()
        assert flags[kept].tolist() == same_basis(rows[keep]).tolist()
    # The slices tile the whole pass's arrays.
    assert [s.start for s in slices[0][:4]] == [0, 0, 0, 0]
    for this, after in zip(slices, slices[1:]):
        assert [s.stop for s in this[:4]] == [s.start for s in after[:4]]
    assert [s.stop for s in slices[-1][:4]] == [len(patterns), len(picks), len(ids), len(alice)]
