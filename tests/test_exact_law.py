"""The batch engine's round tables against the oracle's exact law, without sampling.

A round's pattern is the top bits of its decision word, so if those bits
are fair every column of its shape's round table
(``montecarlo._round_table``) is equally likely. The engine's law of a
coincident round's labels, Eve's first, is then the columns counted by
their labels and divided by the column count. The oracle enumerates the
same law from its own literal tables, weighted by Born probabilities
(``oracle.no_attack_joint``, ``enumerate_single_intercept`` and
``enumerate_double_intercept``), and imports nothing from the package, so
the two meet only in the label strings. ``test_round_table_equals_run_round``
cannot catch a wrong ``OUTCOME_LABEL`` or ``OUTCOME_POST`` entry, because
both of its sides read those tables; this test does.

The same uniform law, dotted with ``montecarlo._patterns``' counters as
Fractions, gives every estimator's exact mean per coincident round: the
paper's constants and the oracle's key bit error rates are checked on them.
"""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import oracle
from hyperqkd import AttackKind, EveBasisStrategy, Photon, montecarlo
from hyperqkd.hilbert import LABELS, SHARED_ID, outcome_slots

from test_kernels import SHAPES, shape_id

IDS = [shape_id(attack) for attack, _ in SHAPES]
# Labels (Eve's, Alice's, Bob's) of nonzero probability per shape, in
# SHAPES' order.
SUPPORT_SIZES = [24, 72, 36, 36, 216, 36, 36, 72, 72]
OTHER = {"type-I": "type-II", "type-II": "type-I"}


def table_law(table):
    """The law of a round table's columns, each equally likely, as
    {(Eve's labels..., Alice's, Bob's): Fraction}."""
    n = table.shape[1]
    counts = Counter(tuple(LABELS[c].value for c in column) for column in table.T.tolist())
    return {labels: Fraction(count, n) for labels, count in counts.items()}


def eve_bases(attack):
    """Eve's bases, as oracle strings, that the shape's strategy draws from:
    each of them is equally likely."""
    random = attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND
    basis = attack.fixed_basis.value
    if attack.kind is AttackKind.SINGLE_INTERCEPT:
        return oracle.BASES if random else (basis,)
    if random:
        return list(itertools.product(oracle.BASES, repeat=2))
    if attack.strategy is EveBasisStrategy.FIXED_SAME:
        return [(basis, basis)]
    return [(basis, OTHER[basis])]


def oracle_law(attack):
    """The oracle's joint law of a round's labels, keyed as in
    :func:`table_law`; impossible label combinations may be listed at 0."""
    if attack is None:
        rows = [(p / 4, a, b) for pair in itertools.product(oracle.BASES, repeat=2)
                for (a, b), p in oracle.no_attack_joint(*pair).items()]
    elif attack.kind is AttackKind.SINGLE_INTERCEPT:
        rows = [(w, e, a, b) for w, _, e, _, a, _, b
                in oracle.enumerate_single_intercept(eve_bases(attack))]
    else:
        pairs = eve_bases(attack)
        rows = [(w / len(pairs), e1, e2, a, b) for pair in pairs
                for w, e1, e2, _, a, _, b in oracle.enumerate_double_intercept(*pair)]
    law = defaultdict(float)
    for w, *labels in rows:
        law[tuple(labels)] += w
    return law


def assert_law(table, attack):
    assert 0 <= table.min() and table.max() < len(LABELS)
    got, want = table_law(table), oracle_law(attack)
    worst = max(abs(float(got.get(key, 0)) - want.get(key, 0.0)) for key in {*got, *want})
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("attack, support", zip([a for a, _ in SHAPES], SUPPORT_SIZES), ids=IDS)
def test_round_table_law_equals_oracle(attack, support):
    table = montecarlo._round_table(attack)
    assert_law(table, attack)
    assert len(table_law(table)) == support
    assert sum(p > 1e-12 for p in oracle_law(attack).values()) == support


# Alice's type-I measurement of photon 1 of the shared state with draw bits
# 00, which every round without an attack makes: Phi+, leaving Phi+ Phi+.
REACHED_SLOT = int(outcome_slots(SHARED_ID, Photon.ONE, 0, 0))


@pytest.mark.parametrize("name", ["OUTCOME_LABEL", "OUTCOME_POST"])
def test_law_catches_a_wrong_table_entry(name):
    assert getattr(montecarlo, name)[REACHED_SLOT] == 0
    wrong = getattr(montecarlo, name).copy()
    wrong[REACHED_SLOT] += 1  # Phi-, or the post-state Phi+ Phi-
    with mock.patch.object(montecarlo, name, wrong):
        table = montecarlo._round_table.__wrapped__(None)
    assert not np.array_equal(table, montecarlo._round_table(None))
    with pytest.raises(AssertionError):
        assert_law(table, None)


def moments(attack):
    """Each of ``_patterns``' counters' exact mean per coincident round:
    its row dotted with the uniform law of the columns."""
    counters = montecarlo._patterns(attack).counters
    return [Fraction(int(total), counters.shape[1]) for total in counters.sum(axis=1)]


@pytest.mark.parametrize("attack", [a for a, _ in SHAPES], ids=IDS)
def test_exact_moments_give_the_papers_constants(attack):
    same, same_mismatch, key_errors, known_rounds, known_same, quarters, *strata = moments(attack)
    # A same-basis round (half of them) gives two key bits, any other one.
    bits = 1 + same
    assert bits == Fraction(3, 2)
    assert bits / Fraction(2, 9) == Fraction(27, 4)
    assert montecarlo.ekert_ratio(float(bits)) == 6.75
    key_error = key_errors / bits
    if attack is None:
        assert same_mismatch == key_errors == known_rounds == quarters == 0
        return
    assert (known_rounds + known_same) / bits == Fraction(1, 2)
    assert quarters / (4 * bits) == Fraction(5, 6)
    if attack.kind is AttackKind.SINGLE_INTERCEPT:
        bases = eve_bases(attack)
        assert same_mismatch / same == Fraction(1, 4)
        assert abs(same_mismatch / same - oracle.single_same_basis_mismatch(bases)) <= 1e-12
        assert abs((known_rounds + known_same) / bits
                   - oracle.single_eve_information(bases)) <= 1e-12
        assert abs(key_error - oracle.single_key_bit_error(bases)) <= 1e-12
        if attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND:
            assert abs(quarters / (4 * bits) - oracle.single_eve_guess_accuracy()) <= 1e-12
        return
    # The strata: rounds of Eve's equal bases, and those with a mismatch.
    equal, equal_mismatch = strata
    rates = {}
    if equal:
        rates[True] = equal_mismatch / equal
        assert rates[True] == Fraction(1, 4)
    if same - equal:
        rates[False] = (same_mismatch - equal_mismatch) / (same - equal)
        assert rates[False] == Fraction(1, 2)
    for eq, rate in rates.items():
        assert abs(rate - oracle.double_same_basis_mismatch(eq)) <= 1e-12
    # With random bases, each of Eve's four basis pairs is equally likely
    # and gives the same key bits per round.
    want = sum(oracle.double_key_bit_error(eq) for eq in rates) / len(rates)
    assert abs(key_error - want) <= 1e-12
