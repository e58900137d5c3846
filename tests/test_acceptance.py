"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Each criterion prints one PASS line when it holds (run with ``pytest -s``
to see them); assertion failures mark the criterion red. The heavyweight
batches are shared across criteria through module-scoped fixtures that
keep only compact summaries.
"""

import math

import numpy as np
import pytest

from hyperqkd import (
    ATOL,
    AttackConfig,
    AttackKind,
    BasisType,
    EveBasisStrategy,
    SimConfig,
    basis_labels,
    bell_vector,
    build_shared_state,
    ekert_ratio,
    expand_in_basis,
    Photon,
    run_batch,
)
from hyperqkd.cli import main as cli_main

import oracle


def _joint_counts(records):
    counts = {}
    for rec in records:
        if not rec.coincident:
            continue
        key = (
            rec.alice_basis.value,
            rec.bob_basis.value,
            rec.alice_outcome.value,
            rec.bob_outcome.value,
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def _diff_bit_disagreements(alice_key, bob_key):
    return sum(
        alice_key.bits[i] != bob_key.bits[i]
        for i, (_, tag) in enumerate(alice_key.provenance)
        if tag == "diff"
    ), sum(1 for _, tag in alice_key.provenance if tag == "diff")


def _key_mix(stats):
    """(key length, same-basis bits, diff-basis bits, same-basis key rounds)."""
    same_rounds = stats.same_basis_count - stats.verification.compared_rounds
    same_bits = 2 * same_rounds
    diff_bits = stats.diff_basis_count
    assert same_bits + diff_bits == stats.key_length
    return stats.key_length, same_bits, diff_bits, same_rounds


@pytest.fixture(scope="module")
def no_attack_batch():
    result = run_batch(SimConfig(rounds=210_000, seed=1001))
    same_mismatches = sum(
        1
        for rec in result.records
        if rec.coincident
        and rec.same_basis
        and rec.alice_outcome is not rec.bob_outcome
    )
    return {
        "stats": result.stats,
        "joint_counts": _joint_counts(result.records),
        "same_mismatches": same_mismatches,
        "keys_equal": result.alice_key.bits == result.bob_key.bits,
    }


@pytest.fixture(scope="module")
def million_round_batch():
    result = run_batch(SimConfig(rounds=1_000_000, seed=1002))
    return {
        "stats": result.stats,
        "keys_equal": result.alice_key.bits == result.bob_key.bits,
        "key_length": len(result.alice_key.bits),
    }


@pytest.fixture(scope="module")
def single_intercept_batch():
    attack = AttackConfig(AttackKind.SINGLE_INTERCEPT)
    result = run_batch(SimConfig(rounds=210_000, seed=1003, attack=attack))
    strata = {True: [0, 0], False: [0, 0]}  # eve basis matches parties' basis
    for rec in result.records:
        if not (rec.coincident and rec.same_basis):
            continue
        match = rec.eve_trace.bases[0] is rec.alice_basis
        strata[match][0] += 1
        strata[match][1] += rec.alice_outcome is not rec.bob_outcome
    diff_bad, diff_total = _diff_bit_disagreements(result.alice_key, result.bob_key)
    return {
        "stats": result.stats,
        "strata": strata,
        "diff_bit_disagreements": diff_bad,
        "diff_bit_count": diff_total,
    }


def _double_batch(seed, strategy):
    attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT, strategy)
    result = run_batch(SimConfig(rounds=210_000, seed=seed, attack=attack))
    return {"stats": result.stats}


@pytest.fixture(scope="module")
def double_same_batch():
    return _double_batch(1004, EveBasisStrategy.FIXED_SAME)


@pytest.fixture(scope="module")
def double_diff_batch():
    return _double_batch(1005, EveBasisStrategy.FIXED_DIFFERENT)


def test_criterion_1_same_basis_perfect_correlation(no_attack_batch):
    """Same-basis coincident rounds must agree exactly, with zero mismatches."""
    stats = no_attack_batch["stats"]
    assert stats.same_basis_count >= 100_000
    assert no_attack_batch["same_mismatches"] == 0
    assert stats.same_basis_mismatch_rate == 0.0
    print(
        f"ACCEPTANCE 1 PASS - same-basis mismatches = "
        f"{no_attack_batch['same_mismatches']} over {stats.same_basis_count} rounds"
    )


def test_criterion_2_cross_basis_pairs(no_attack_batch):
    """Different-basis outcomes confined to the 8 correlated pairs, 1/8 each."""
    allowed = oracle.allowed_cross_pairs()
    counts = no_attack_batch["joint_counts"]
    per_orientation = {}
    for (basis_a, basis_b, a, b), n in counts.items():
        if basis_a == basis_b:
            continue
        pair = (a, b) if basis_a == "type-I" else (b, a)
        assert pair in allowed, f"forbidden joint outcome {(a, b)} seen {n} times"
        per_orientation[(basis_a, a, b)] = per_orientation.get((basis_a, a, b), 0) + n
    total = no_attack_batch["stats"].diff_basis_count
    assert total >= 100_000
    pair_totals = {}
    for (basis_a, a, b), n in per_orientation.items():
        pair = (a, b) if basis_a == "type-I" else (b, a)
        pair_totals[pair] = pair_totals.get(pair, 0) + n
    for pair in allowed:
        freq = pair_totals.get(pair, 0) / total
        assert abs(freq - 0.125) <= 0.01
    print(
        f"ACCEPTANCE 2 PASS - all {total} cross-basis outcomes in the 8 pairs, "
        f"each within 0.125 +- 0.01"
    )


def test_criterion_3_key_rate(million_round_batch):
    """1.5 key bits per coincidence and bit-identical keys over 1e6 rounds."""
    stats = million_round_batch["stats"]
    assert stats.rounds == 1_000_000
    assert abs(stats.bits_per_coincidence - 1.5) <= 0.01
    assert million_round_batch["keys_equal"]
    print(
        f"ACCEPTANCE 3 PASS - bits/coincidence = {stats.bits_per_coincidence:.5f}, "
        f"keys identical over {million_round_batch['key_length']} bits"
    )


def test_criterion_4_ekert_comparison(million_round_batch):
    """Measured key rate sits 27/4 above the 2/9-per-pair baseline."""
    stats = million_round_batch["stats"]
    ratio = ekert_ratio(stats.bits_per_coincidence)
    assert abs(ratio - 6.75) <= 0.05
    assert ratio == stats.ekert_ratio
    print(f"ACCEPTANCE 4 PASS - ekert_ratio = {ratio:.4f} (6.75 +- 0.05)")


def test_criterion_5_single_intercept_error_rate(single_intercept_batch):
    """Single intercept: 25% same-basis mismatch; diff-basis bits untouched."""
    stats = single_intercept_batch["stats"]
    assert stats.same_basis_count >= 100_000
    assert abs(stats.same_basis_mismatch_rate - 0.25) <= 0.01
    # simulation: not a single different-basis bit disagrees
    assert single_intercept_batch["diff_bit_count"] > 0
    assert single_intercept_batch["diff_bit_disagreements"] == 0
    # exhaustive enumeration oracle agrees the rate is exactly zero
    assert oracle.single_diff_basis_bit_mismatch() == 0.0
    print(
        f"ACCEPTANCE 5 PASS - mismatch = {stats.same_basis_mismatch_rate:.4f} "
        f"over {stats.same_basis_count} compared rounds; "
        f"0/{single_intercept_batch['diff_bit_count']} diff-basis bit errors"
    )


def test_criterion_6_eve_information(single_intercept_batch):
    """Certainty-criterion information is 50% under a random-basis intercept."""
    stats = single_intercept_batch["stats"]
    assert abs(stats.eve_information - 0.5) <= 0.02
    print(f"ACCEPTANCE 6 PASS - eve_information = {stats.eve_information:.4f} (0.50 +- 0.02)")


def test_criterion_7_double_intercept_detection(double_same_batch, double_diff_batch):
    """Detection probability 1/4 (Eve same bases) and 1/2 (different bases)."""
    det_same = double_same_batch["stats"].detection
    det_diff = double_diff_batch["stats"].detection
    assert det_same.same_bases_compared >= 100_000
    assert abs(det_same.same_bases_rate - 0.25) <= 0.01
    assert det_diff.diff_bases_compared >= 100_000
    assert abs(det_diff.diff_bases_rate - 0.5) <= 0.01
    print(
        f"ACCEPTANCE 7 PASS - detection = {det_same.same_bases_rate:.4f} (same bases), "
        f"{det_diff.diff_bases_rate:.4f} (different bases)"
    )


class TestCriterion8AlgebraAndOracleAgreement:
    """Exact-algebra identities at 1e-12 plus Monte Carlo vs oracle at 3 SE."""

    def test_orthonormality(self):
        for basis in BasisType:
            mat = np.stack([bell_vector(lab) for lab in basis_labels(basis)])
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=ATOL)

    def test_basis_conversion_coefficients(self):
        s2 = 1.0 / math.sqrt(2.0)
        for label in basis_labels(BasisType.TYPE_I):
            coeffs = [abs(c) for _, c in expand_in_basis(bell_vector(label), BasisType.TYPE_II)]
            np.testing.assert_allclose(sorted(coeffs), [0.0, 0.0, s2, s2], atol=ATOL)

    def test_shared_state_reconstruction(self):
        for signs, basis in (
            ((0.5, -0.5, -0.5, 0.5), BasisType.TYPE_I),
            ((-0.5, 0.5, 0.5, -0.5), BasisType.TYPE_II),
        ):
            total = sum(
                c * np.kron(bell_vector(lab), bell_vector(lab))
                for c, lab in zip(signs, basis_labels(basis))
            )
            np.testing.assert_allclose(total, build_shared_state(), atol=ATOL)

    def test_born_completeness(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state = v / np.linalg.norm(v)
            for photon in Photon:
                for basis in BasisType:
                    m = state.reshape(4, 4)
                    total = 0.0
                    for lab in basis_labels(basis):
                        bell = bell_vector(lab).conj()
                        cond = bell @ m if photon is Photon.ONE else m @ bell
                        total += float(np.vdot(cond, cond).real)
                    assert abs(total - 1.0) <= ATOL

    def test_no_attack_joint_distribution_vs_oracle(self, no_attack_batch):
        counts = no_attack_batch["joint_counts"]
        block_totals = {}
        for (basis_a, basis_b, _, _), n in counts.items():
            block_totals[(basis_a, basis_b)] = block_totals.get((basis_a, basis_b), 0) + n
        for basis_a in oracle.BASES:
            for basis_b in oracle.BASES:
                block_n = block_totals[(basis_a, basis_b)]
                exact = oracle.no_attack_joint(basis_a, basis_b)
                for (a, b), p in exact.items():
                    observed = counts.get((basis_a, basis_b, a, b), 0)
                    if p <= 1e-12:
                        assert observed == 0
                    else:
                        se = math.sqrt(p * (1 - p) / block_n)
                        assert abs(observed / block_n - p) <= 3 * se

    def test_bits_per_coincidence_vs_oracle(self, no_attack_batch, single_intercept_batch,
                                            double_same_batch, double_diff_batch):
        expected = oracle.bits_per_coincidence_exact()
        for batch in (no_attack_batch, single_intercept_batch,
                      double_same_batch, double_diff_batch):
            stats = batch["stats"]
            assert abs(stats.bits_per_coincidence - expected) <= 3 * stats.bits_per_coincidence_se

    def test_single_intercept_vs_oracle(self, single_intercept_batch):
        stats = single_intercept_batch["stats"]
        exact = oracle.single_same_basis_mismatch()
        se = math.sqrt(exact * (1 - exact) / stats.same_basis_count)
        assert abs(stats.same_basis_mismatch_rate - exact) <= 3 * se

        strata = single_intercept_batch["strata"]
        exact_strata = oracle.single_mismatch_by_eve_match()
        n_match, bad_match = strata[True]
        assert exact_strata[True] == 0.0
        assert bad_match == 0  # exactly zero when Eve's basis matched
        n_other, bad_other = strata[False]
        se = math.sqrt(0.5 * 0.5 / n_other)
        assert abs(bad_other / n_other - exact_strata[False]) <= 3 * se

        # key-composition-aware comparisons: verification consumes same-basis
        # rounds, so the same/diff bit mix of this key enters the expected
        # values, and same-basis bits come in fully correlated pairs
        key_len, same_bits, diff_bits, same_rounds = _key_mix(stats)

        exact_info = oracle.single_eve_information()
        se_info = math.sqrt(same_rounds + diff_bits / 4.0) / key_len
        assert abs(stats.eve_information - exact_info) <= 3 * se_info

        by_group = oracle.single_guess_accuracy_by_group()
        expected_acc = (same_bits * by_group["same"] + diff_bits * by_group["diff"]) / key_len
        se_acc = math.sqrt(0.25 * same_rounds) / key_len
        assert abs(stats.eve_guess_accuracy - expected_acc) <= 3 * se_acc

        bit_err = oracle.single_same_basis_bit_error()
        expected_err = same_bits * bit_err / key_len
        se_err = 2.0 * math.sqrt(bit_err * (1 - bit_err) * same_rounds) / key_len
        assert abs(stats.key_bit_error_rate - expected_err) <= 3 * se_err

    def test_double_intercept_vs_oracle(self, double_same_batch, double_diff_batch):
        det = double_same_batch["stats"].detection
        exact = oracle.double_same_basis_mismatch(True)
        se = math.sqrt(exact * (1 - exact) / det.same_bases_compared)
        assert abs(det.same_bases_rate - exact) <= 3 * se

        det = double_diff_batch["stats"].detection
        exact = oracle.double_same_basis_mismatch(False)
        se = math.sqrt(exact * (1 - exact) / det.diff_bases_compared)
        assert abs(det.diff_bases_rate - exact) <= 3 * se

        for batch, equal in ((double_same_batch, True), (double_diff_batch, False)):
            stats = batch["stats"]
            key_len, same_bits, _, same_rounds = _key_mix(stats)
            bit_err = oracle.double_same_basis_bit_error(equal)
            expected_err = same_bits * bit_err / key_len
            se_err = 2.0 * math.sqrt(bit_err * (1 - bit_err) * same_rounds) / key_len
            assert abs(stats.key_bit_error_rate - expected_err) <= 3 * se_err

    def test_summary(self):
        print("ACCEPTANCE 8 PASS - exact algebra at 1e-12; Monte Carlo vs "
              "enumeration oracle within 3 SE for every scenario")


class TestCriterion9Determinism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        argv = ["--rounds", "20000", "--seed", "77", "--attack", "single",
                "--deterministic-output"]
        out1, out2 = tmp_path / "first.json", tmp_path / "second.json"
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_changes_nothing(self):
        config = SimConfig(rounds=20_000, seed=78)
        first = run_batch(config)
        second = run_batch(config)
        assert second.stats == first.stats
        assert second.alice_key == first.alice_key
        assert second.bob_key == first.bob_key
        assert second.records == first.records
        print("ACCEPTANCE 9 PASS - byte-identical reports; records, statistics "
              "and keys identical across reruns")
