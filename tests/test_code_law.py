"""The batch engine's code histogram against its exact law, by a G-test.

A round's code is its pattern, the top bits of its decision word, above
its two detection bits, which the word's low 52 bits decide (and, when a
party's field ties with the threshold, the party's own draw). If the
stream's bits are fair and independent,
every pattern of an attack shape is equally likely, and each party is
detected, independently of the pattern and of the other party, with
probability exactly ``P = ceil(eta * 2**53) / 2**53`` (the threshold of
``rng.below_threshold``). So the exact law of a code is
``2**-bits * P_a * P_b``, with ``P_a`` = P or 1 - P by Alice's detection
bit and ``P_b`` by Bob's. What each pattern means is tested exactly,
without sampling, against the scalar reference (``test_kernels.py``); this
file tests only the random bits, on the histogram of the codes of
``rng.draw_blocks``' own blocks (:func:`code_histogram`).

Each case draws enough rounds that every bin's expected count is at least
40 and fails if the G statistic's p-value is below ``P_FLOOR``. The seeds
and the floor were fixed before the test was first run. The statistic has
Williams' correction, and the p-value uses the Wilson-Hilferty normal
approximation of the chi-square tail.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hyperqkd import montecarlo
from hyperqkd.rng import below_threshold, draw_blocks

from test_kernels import PATTERN_BITS, SHAPES, shape_id

P_FLOOR = 1e-6
# Rounds per pattern: the rarest bin expects 4096 * (1 - 0.9)**2 > 40
# rounds. At 5 per bin G's law has a heavier tail than chi-square even with
# Williams' correction: on ideal multinomial counts over 4 096 bins, 33 of
# 400 p-values fell below 0.05.
ROUNDS_PER_PATTERN = 4096
EFFICIENCIES = (1.0, 0.9)
CASES = [(attack, eta) for attack, _ in SHAPES for eta in EFFICIENCIES]


def chi2_sf(stat, dof):
    """Upper tail of the chi-square law with ``dof`` degrees of freedom at
    ``stat``, by the Wilson-Hilferty cube-root normal approximation."""
    scale = 2.0 / (9.0 * dof)
    z = ((stat / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def exact_law(bits, efficiency):
    """Each code's exact probability (Fractions), code = 4 * pattern + 2 *
    Alice's detection + Bob's."""
    p = Fraction(below_threshold(efficiency), 2**64)
    detect = [1 - p, p]
    per_pattern = [detect[a] * detect[b] for a in (0, 1) for b in (0, 1)]
    return [Fraction(1, 2**bits) * q for q in per_pattern] * 2**bits


def code_histogram(seed, rounds, efficiency, bits):
    """The histogram (int64, one bin per code) of the codes of ``rounds``
    rounds, code = 4 * pattern + 2 * Alice's detection + Bob's, from
    ``rng.draw_blocks``' blocks of the engine's size."""
    counts = np.zeros(4 << bits, dtype=np.int64)
    for _, pattern, alice, bob in draw_blocks(
            seed, rounds, efficiency, bits, montecarlo._BLOCK_ROUNDS):
        code = pattern << 2
        code |= 3 if alice is None else alice.view(np.uint8) << 1 | bob
        counts += np.bincount(code.view(np.int64), minlength=4 << bits)
    return counts


def g_test(seed, attack, efficiency):
    """The G statistic's p-value for one seeded histogram, and the number
    of rounds it came from; a code of probability 0 must not occur."""
    bits = PATTERN_BITS[attack]
    rounds = ROUNDS_PER_PATTERN << bits
    law = exact_law(bits, efficiency)
    counts = code_histogram(seed, rounds, efficiency, bits)
    assert counts.sum() == rounds and len(counts) == len(law)
    expected = np.array([float(q * rounds) for q in law])
    possible = expected > 0
    assert not counts[~possible].any()
    assert expected[possible].min() >= 40
    observed, expected = counts[possible], expected[possible]
    return chi2_sf(*g_statistic(observed, expected)), rounds


def g_statistic(observed, expected):
    """The G statistic of ``observed`` counts against ``expected`` ones,
    with Williams' correction, and its degrees of freedom.

    Williams' divisor ``q`` removes the first-order excess of G over its
    chi-square law, about ``sum(1 / expected) / 6``, which is not small when
    many bins expect few counts (Williams, Biometrika 1976)."""
    dof = len(observed) - 1
    seen = observed > 0
    stat = 2.0 * float((observed[seen] * np.log(observed[seen] / expected[seen])).sum())
    # With n rounds and bin probabilities p_i = expected_i / n:
    # q = 1 + (sum(1 / p_i) - 1) / (6 n dof).
    n = float(observed.sum())
    q = 1.0 + (n * float((1.0 / expected).sum()) - 1.0) / (6.0 * n * dof)
    return stat / q, dof


def test_chi2_tail_approximation():
    # Known quantiles: chi-square(1) exceeds 3.841 with p 0.05, and
    # chi-square(100) exceeds 124.342 with p 0.05 and 135.807 with p 0.01.
    assert abs(chi2_sf(124.342, 100) - 0.05) < 1e-3
    assert abs(chi2_sf(135.807, 100) - 0.01) < 1e-3
    assert abs(chi2_sf(3.841, 1) - 0.05) < 0.01
    assert chi2_sf(0.0, 10) > 0.999


def test_exact_law_sums_to_one():
    for bits in (6, 12):
        for eta in (*EFFICIENCIES, 0.05):
            assert sum(exact_law(bits, eta)) == 1


@pytest.mark.parametrize("index, case", list(enumerate(CASES)),
                         ids=[f"{shape_id(a)}-{eta}" for a, eta in CASES])
def test_code_histogram_follows_the_exact_law(index, case):
    attack, efficiency = case
    p_value, _ = g_test(1000 + index, attack, efficiency)
    assert p_value >= P_FLOOR, p_value


def test_a_biased_detection_bit_fails():
    # The histogram of efficiency 0.9 read against the law of 0.89: a
    # detection probability one point off is caught at these counts.
    bits = PATTERN_BITS[SHAPES[0][0]]
    rounds = ROUNDS_PER_PATTERN << bits
    counts = code_histogram(1000, rounds * 8, 0.9, bits)
    expected = np.array([float(q) for q in exact_law(bits, 0.89)]) * counts.sum()
    assert chi2_sf(*g_statistic(counts, expected)) < P_FLOOR
