"""The batch engine's lookup kernels against references outside them.

``protocol.partial_shuffle`` gives the verification picks of a partial
Fisher-Yates shuffle as array operations; :func:`reference_picks` is the
shuffle as a loop, one swap per step, holding only the slots it moved.
``montecarlo._round_table`` holds every round of an attack shape as one
column; each column is checked against the scalar ``run_round`` fed draws
that carry that column's bit pattern, so the table is not checked by the
chain that built it. ``montecarlo._patterns`` holds what each column gives
a coincident round (sifting, mismatch, key bits, Eve's tallies and whether
her bases were equal); each entry, and what ``eve_tallies``, ``eve_counts``
and ``_detection`` make of the column, is checked against the per-record
reference of ``reference.py`` on the column's round under all four
detection states. The engine reads the same-basis flag off each round's
code; that rule is checked against the table on every code.
"""

import math

import numpy as np
import pytest

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
from hyperqkd.adversary import eve_counts, eve_tallies
from hyperqkd.hilbert import LABELS
from hyperqkd.protocol import key_bits, partial_shuffle


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

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53


# Every attack shape and the top bits run_round reads of each decision draw,
# in draw order: Eve's basis draws (random strategy only), her measurement
# draws, Alice's and Bob's bases, Alice's and Bob's measurements.
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


def shape_id(attack):
    if attack is None:
        return "none"
    return f"{attack.kind.value}-{attack.strategy.value}-{attack.fixed_basis.value}"


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
def test_round_table_equals_run_round(attack, widths):
    table = montecarlo._round_table(attack)
    eve_rows = 0 if attack is None else 1 if attack.kind is AttackKind.SINGLE_INTERCEPT else 2
    assert table.dtype == np.int8
    assert table.shape == (eve_rows + 2, 2 ** sum(widths))
    assert not table.flags.writeable
    junk = np.random.default_rng(len(widths))
    for pattern in range(2 ** sum(widths)):
        # Each draw carries its field of the pattern in its top bits and
        # random bits below them, which no decision may read.
        draws, shift = [], sum(widths)
        for width in widths:
            shift -= width
            low = int(junk.integers(0, 2 ** (64 - width), dtype=np.uint64))
            draws.append((pattern >> shift & (1 << width) - 1) << (64 - width) | low)
        rand = GivenDraws(draws + [0, 0])  # two detection draws, both succeed
        rec = run_round(0, attack, 1.0, rand)
        assert rand.used == len(draws) + 2
        eve = () if rec.eve_trace is None else rec.eve_trace.outcomes
        want = [LABELS.index(lab) for lab in (*eve, rec.alice_outcome, rec.bob_outcome)]
        assert table[:, pattern].tolist() == want, pattern


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
def test_pattern_tables_equal_reference(attack, widths):
    tables = montecarlo._patterns(attack)
    table = montecarlo._round_table(attack)
    size = 2 ** sum(widths)
    columns = [(tables.same, bool), (tables.mismatch, bool),
               (tables.key_rows, np.uint16), (tables.key_errors, np.int8)]
    assert (tables.eve is None) == (attack is None)
    if attack is not None:
        columns += zip(tables.eve, (bool, bool, np.int8))
    double = attack is not None and attack.kind is AttackKind.DOUBLE_INTERCEPT
    assert (tables.equal_bases is not None) == double
    if double:
        columns.append((tables.equal_bases, bool))
    for arr, dtype in columns:
        assert arr.dtype == dtype and arr.shape == (size,) and not arr.flags.writeable
    # Every pattern with each of the four detection states: code 4 * pattern
    # + 2 * Alice's detection + Bob's.
    codes = np.arange(4 * size, dtype=np.uint16)
    records = montecarlo._Rounds(codes, attack).records()
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
        assert tables.same[p] == rec.same_basis
        assert tables.mismatch[p] == (rec.alice_outcome is not rec.bob_outcome)
        got = key_bits(tables.key_rows[p:p + 1].view(np.uint8))
        assert [b.tolist() for b in got] == [list(alice.bits), list(bob.bits)]
        assert tables.key_errors[p] == sum(a != b for a, b in zip(alice.bits, bob.bits))
        if attack is None:
            continue
        # The per-pattern Eve and detection columns, and what the kernels
        # make of the round's codes.
        row = slice(p, p + 1)
        known = ref.eve_knows(rec)
        quarters = round(4 * len(bob) * ref.eve_guess_accuracy([rec], bob))
        want = (known, known and rec.same_basis, quarters)
        assert tuple(tally[p] for tally in tables.eve) == want
        assert eve_counts(eve_tallies(table[-3, row], table[-1, row] >> 2, tables.same[row]),
                          1) == want
        if double:
            assert tables.equal_bases[p] == (
                rec.eve_trace.bases[0] is rec.eve_trace.bases[1])
            if rec.same_basis:
                assert montecarlo._detection(tables.equal_bases[row], tables.mismatch[row],
                                             1) == ref.detection_probability([rec])


@pytest.mark.parametrize("attack, widths", SHAPES, ids=[shape_id(a) for a, _ in SHAPES])
@pytest.mark.parametrize("dtype", [np.uint64, np.uint16])
def test_same_basis_bits_equal_the_table(attack, widths, dtype):
    # Every code: each pattern with each of the four detection states.
    codes = np.arange(4 << sum(widths), dtype=dtype)
    got = blocks.same_basis(codes, np.empty(len(codes), dtype=bool),
                            np.empty_like(codes))
    assert got.tolist() == montecarlo._patterns(attack).same[codes >> 2].tolist()
