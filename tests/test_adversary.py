"""Tests for the intercept-resend attacks and Eve's information estimators."""

import dataclasses
import math

import numpy as np
import pytest

from hyperqkd import (
    DIFF,
    SAME,
    AttackConfig,
    AttackKind,
    BasisType,
    BellLabel,
    ConfigurationError,
    EveBasisStrategy,
    EveRecord,
    KeyBits,
    Photon,
    RandomSource,
    RoundRecord,
    basis_labels,
    bell_vector,
    build_keys,
    build_shared_state,
    choose_basis,
    eve_double_intercept,
    eve_guess_accuracy,
    eve_information,
    eve_single_intercept,
    fidelity,
    measure_party,
    run_round,
    sift,
)
import hyperqkd
from hyperqkd.adversary import guess_score, knows_outcome

import oracle
import reference


def schmidt_singular_values(joint_state):
    return np.linalg.svd(np.asarray(joint_state).reshape(4, 4), compute_uv=False)


def product_factors(joint_state):
    """Split a rank-1 joint state into its two normalized factors."""
    m = np.asarray(joint_state).reshape(4, 4)
    u, s, vh = np.linalg.svd(m)
    return u[:, 0] * np.sign(s[0]), vh[0]


def simulate_attacked(n, seed, attack):
    return [
        run_round(i, attack, 1.0, RandomSource.for_round(seed, i)) for i in range(n)
    ]


class TestSingleIntercept:
    def test_outcome_uniform_and_partner_collapses(self):
        rng = RandomSource(51)
        counts = {lab: 0 for lab in basis_labels(BasisType.TYPE_I)}
        n = 20_000
        for _ in range(n):
            state, trace = eve_single_intercept(
                build_shared_state(), BasisType.TYPE_I, rng
            )
            counts[trace.outcomes[0]] += 1
        se = math.sqrt(0.25 * 0.75 / n)
        for lab, count in counts.items():
            assert abs(count / n - 0.25) <= 3 * se

    @pytest.mark.parametrize("basis", list(BasisType))
    def test_resent_state_structure(self, basis):
        rng = RandomSource(52)
        for _ in range(64):
            state, trace = eve_single_intercept(build_shared_state(), basis, rng)
            assert abs(np.vdot(state, state).real - 1.0) <= 1e-10
            # product of Bell eigenstates: photon 2 carries Eve's outcome and
            # photon 1 the same-labeled conditional state
            svals = schmidt_singular_values(state)
            assert svals[1] <= 1e-10
            f1, f2 = product_factors(state)
            outcome_vec = bell_vector(trace.outcomes[0])
            assert fidelity(f2, outcome_vec) >= 1.0 - 1e-10
            assert fidelity(f1, outcome_vec) >= 1.0 - 1e-10

    def test_matching_bases_preserve_correlation(self):
        # Eve, Alice and Bob all in the same basis: never detectable
        for i in range(3000):
            rng = RandomSource.for_round(53, i)
            state, _ = eve_single_intercept(build_shared_state(), BasisType.TYPE_I, rng)
            res_a = measure_party(state, Photon.ONE, BasisType.TYPE_I, rng)
            res_b = measure_party(res_a.post_state, Photon.TWO, BasisType.TYPE_I, rng)
            assert res_a.label is res_b.label

    def test_mismatched_eve_basis_gives_half(self):
        assert oracle.single_mismatch_by_eve_match() == {True: 0.0, False: 0.5}
        n = 20_000
        mismatches = 0
        for i in range(n):
            rng = RandomSource.for_round(54, i)
            state, _ = eve_single_intercept(build_shared_state(), BasisType.TYPE_II, rng)
            res_a = measure_party(state, Photon.ONE, BasisType.TYPE_I, rng)
            res_b = measure_party(res_a.post_state, Photon.TWO, BasisType.TYPE_I, rng)
            mismatches += res_a.label is not res_b.label
        se = math.sqrt(0.25 / n)
        assert abs(mismatches / n - 0.5) <= 3 * se

    def test_same_basis_mismatch_quarter(self):
        assert abs(oracle.single_same_basis_mismatch() - 0.25) < 1e-12
        attack = AttackConfig(AttackKind.SINGLE_INTERCEPT)
        groups = sift(simulate_attacked(20_000, 55, attack))
        n = len(groups.same_basis)
        mism = sum(r.alice_outcome is not r.bob_outcome for r in groups.same_basis)
        assert abs(mism / n - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n)

    def test_diff_basis_bits_unaffected(self):
        # exact enumeration
        assert oracle.single_diff_basis_bit_mismatch() == 0.0
        # and by simulation, bit-for-bit
        attack = AttackConfig(AttackKind.SINGLE_INTERCEPT)
        groups = sift(simulate_attacked(20_000, 56, attack))
        alice, bob = build_keys(groups)
        diff_positions = [
            i for i, (_, tag) in enumerate(alice.provenance) if tag == "diff"
        ]
        assert diff_positions
        for i in diff_positions:
            assert alice.bits[i] == bob.bits[i]


class TestDoubleIntercept:
    def test_equal_bases_equal_outcomes(self):
        rng = RandomSource(61)
        for basis in BasisType:
            for _ in range(500):
                _, trace = eve_double_intercept(build_shared_state(), basis, basis, rng)
                assert trace.outcomes[0] is trace.outcomes[1]

    def test_cross_bases_pair_distribution(self):
        exact = oracle.double_eve_pair_distribution("type-I", "type-II")
        assert set(exact) == oracle.allowed_cross_pairs()
        rng = RandomSource(62)
        n = 20_000
        counts = {}
        for _ in range(n):
            _, trace = eve_double_intercept(
                build_shared_state(), BasisType.TYPE_I, BasisType.TYPE_II, rng
            )
            key = (trace.outcomes[0].value, trace.outcomes[1].value)
            assert key in exact
            counts[key] = counts.get(key, 0) + 1
        se = math.sqrt(0.125 * 0.875 / n)
        for pair in exact:
            assert abs(counts.get(pair, 0) / n - 0.125) <= 3 * se

    def test_destroys_entanglement(self):
        rng = RandomSource(63)
        for b1 in BasisType:
            for b2 in BasisType:
                for _ in range(100):
                    state, trace = eve_double_intercept(build_shared_state(), b1, b2, rng)
                    assert schmidt_singular_values(state)[1] <= 1e-10
                    f1, f2 = product_factors(state)
                    assert fidelity(f1, bell_vector(trace.outcomes[0])) >= 1.0 - 1e-10
                    assert fidelity(f2, bell_vector(trace.outcomes[1])) >= 1.0 - 1e-10

    def test_measurement_order_is_statistically_irrelevant(self):
        # photon-2-first variant built from the same primitives
        rng = RandomSource(64)
        n = 20_000
        forward = {}
        reverse = {}
        for _ in range(n):
            _, trace = eve_double_intercept(
                build_shared_state(), BasisType.TYPE_I, BasisType.TYPE_II, rng
            )
            forward[trace.outcomes] = forward.get(trace.outcomes, 0) + 1
            second = measure_party(build_shared_state(), Photon.TWO, BasisType.TYPE_II, rng)
            first = measure_party(second.post_state, Photon.ONE, BasisType.TYPE_I, rng)
            key = (first.label, second.label)
            reverse[key] = reverse.get(key, 0) + 1
        se = math.sqrt(0.125 * 0.875 / n)
        for key in set(forward) | set(reverse):
            assert abs(forward.get(key, 0) / n - reverse.get(key, 0) / n) <= 6 * se

    def test_detection_rates_match_oracle(self):
        assert abs(oracle.double_same_basis_mismatch(True) - 0.25) < 1e-12
        assert abs(oracle.double_same_basis_mismatch(False) - 0.5) < 1e-12
        for strategy, expected in (
            (EveBasisStrategy.FIXED_SAME, 0.25),
            (EveBasisStrategy.FIXED_DIFFERENT, 0.5),
        ):
            attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT, strategy)
            groups = sift(simulate_attacked(20_000, 65, attack))
            n = len(groups.same_basis)
            mism = sum(r.alice_outcome is not r.bob_outcome for r in groups.same_basis)
            assert abs(mism / n - expected) <= 3 * math.sqrt(expected * (1 - expected) / n)


class TestAttackConfig:
    def test_single_rejects_fixed_different(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(AttackKind.SINGLE_INTERCEPT, EveBasisStrategy.FIXED_DIFFERENT)

    @pytest.mark.parametrize("field, value", [
        ("kind", "single"),
        ("strategy", "random"),
        ("fixed_basis", "I"),
    ])
    def test_rejects_a_field_outside_its_enum(self, field, value):
        # Before the check AttackConfig("single") ran as a double intercept
        # and a strategy "random" as the fixed-basis attack.
        fields = {"kind": AttackKind.SINGLE_INTERCEPT, field: value}
        with pytest.raises(ConfigurationError, match=field) as caught:
            AttackConfig(**fields)
        assert caught.value.fields == (field,)

    def test_rejects_every_field_outside_its_enum_at_once(self):
        with pytest.raises(ConfigurationError) as caught:
            AttackConfig("double", 1, None)
        assert caught.value.fields == ("kind", "strategy", "fixed_basis")

    def test_single_basis_count(self):
        attack = AttackConfig(AttackKind.SINGLE_INTERCEPT)
        assert len(attack.bases_for_round(RandomSource(1))) == 1

    def test_fixed_strategies_deterministic(self):
        rng = RandomSource(2)
        same = AttackConfig(
            AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_SAME, BasisType.TYPE_II
        )
        assert same.bases_for_round(rng) == (BasisType.TYPE_II, BasisType.TYPE_II)
        different = AttackConfig(
            AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_DIFFERENT, BasisType.TYPE_II
        )
        assert different.bases_for_round(rng) == (BasisType.TYPE_II, BasisType.TYPE_I)

    def test_random_double_covers_all_pairs(self):
        attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT)
        rng = RandomSource(3)
        pairs = {attack.bases_for_round(rng) for _ in range(200)}
        assert len(pairs) == 4

    def test_trace_arity_matches_kind(self):
        single = AttackConfig(AttackKind.SINGLE_INTERCEPT)
        rec = simulate_attacked(10, 66, single)[0]
        assert len(rec.eve_trace.bases) == 1
        double = AttackConfig(AttackKind.DOUBLE_INTERCEPT)
        rec = simulate_attacked(10, 67, double)[0]
        assert len(rec.eve_trace.bases) == 2


class TestEveRecord:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            EveRecord(0, (BasisType.TYPE_I,), ())
        with pytest.raises(ValueError):
            EveRecord(0, (), ())

    def test_outcome_must_match_basis(self):
        with pytest.raises(ValueError):
            EveRecord(0, (BasisType.TYPE_I,), (BellLabel.CHI_PLUS,))


def _keyed_batch(n, seed, attack):
    records = simulate_attacked(n, seed, attack)
    groups = sift(records)
    alice, bob = build_keys(groups)
    return records, alice, bob


class TestEveInformation:
    def test_absent_eve_knows_nothing(self):
        records = [
            run_round(i, None, 1.0, RandomSource.for_round(71, i)) for i in range(200)
        ]
        groups = sift(records)
        _, bob = build_keys(groups)
        assert eve_information(records, bob) == 0.0
        # Untouched, every key bit is a fair coin to her.
        assert eve_guess_accuracy(records, bob) == 0.5

    def test_untouched_rounds_among_attacked_ones(self):
        # Every third record loses its trace: those rounds count as ones Eve
        # did not touch, in the adapters and in the per-record reference.
        records, _, bob = _keyed_batch(600, 79, AttackConfig(AttackKind.SINGLE_INTERCEPT))
        records = [dataclasses.replace(rec, eve_trace=None) if rec.round_id % 3 == 0 else rec
                   for rec in records]
        for estimator in ("eve_information", "eve_guess_accuracy"):
            got = getattr(hyperqkd, estimator)(records, bob)
            assert got == getattr(reference, estimator)(records, bob)
        assert 0.0 < eve_information(records, bob) < 0.5
        assert 0.5 < eve_guess_accuracy(records, bob) < 5.0 / 6.0

    def test_empty_key(self):
        records, _, _ = _keyed_batch(10, 72, AttackConfig(AttackKind.SINGLE_INTERCEPT))
        empty = KeyBits((), (), ())
        assert eve_information(records, empty) is None
        assert eve_guess_accuracy(records, empty) is None

    def test_single_random_half(self):
        assert abs(oracle.single_eve_information() - 0.5) < 1e-12
        records, _, bob = _keyed_batch(
            20_000, 73, AttackConfig(AttackKind.SINGLE_INTERCEPT)
        )
        estimate = eve_information(records, bob)
        assert abs(estimate - 0.5) <= 0.015

    def test_known_bits_are_correct(self):
        # wherever Eve's resent state pins Bob's outcome, replaying the
        # encoding must reproduce Bob's actual bits
        from hyperqkd import encode_diff_basis, encode_same_basis

        records, _, bob = _keyed_batch(
            2000, 74, AttackConfig(AttackKind.SINGLE_INTERCEPT)
        )
        by_id = {r.round_id: r for r in records}
        checked = 0
        position = 0
        prev = None
        for i, (rid, tag) in enumerate(bob.provenance):
            position = position + 1 if rid == prev else 0
            prev = rid
            rec = by_id[rid]
            trace = rec.eve_trace
            support = [
                lab
                for lab in basis_labels(rec.bob_basis)
                if fidelity(bell_vector(lab), bell_vector(trace.outcomes[-1])) > 1e-9
            ]
            if len(support) != 1:
                continue
            predicted = (
                encode_same_basis(support[0])[position]
                if tag == "same"
                else encode_diff_basis(support[0])
            )
            assert predicted == bob.bits[i]
            checked += 1
        assert checked > 0

    def test_omniscient_strategy_reaches_upper_bound(self):
        # Eve's basis forced equal to Bob's every round (test-only strategy)
        assert oracle.single_eve_information(bob_basis_forced_to_eve=True) == 1.0
        records = []
        for i in range(2000):
            rng = RandomSource.for_round(75, i)
            b_basis = choose_basis(rng)
            state, trace = eve_single_intercept(
                build_shared_state(), b_basis, rng, round_id=i
            )
            a_basis = choose_basis(rng)
            res_a = measure_party(state, Photon.ONE, a_basis, rng)
            res_b = measure_party(res_a.post_state, Photon.TWO, b_basis, rng)
            records.append(
                RoundRecord(i, a_basis, b_basis, res_a.label, res_b.label, True, True, trace)
            )
        groups = sift(records)
        _, bob = build_keys(groups)
        assert eve_information(records, bob) == 1.0

    def test_key_round_without_record(self):
        records, _, bob = _keyed_batch(50, 76, AttackConfig(AttackKind.SINGLE_INTERCEPT))
        missing = bob.rounds[0][0]
        with pytest.raises(ValueError, match=f"round {missing} with no record"):
            eve_information([r for r in records if r.round_id != missing], bob)

    def test_key_flag_must_match_record_bases(self):
        # Same-basis rounds 3 (Eve's resent Phi+ pins Bob's type-I outcome)
        # and 4 (her chi+ does not).
        def record(rid, eve_basis, eve_outcome):
            return RoundRecord(rid, BasisType.TYPE_I, BasisType.TYPE_I, BellLabel.PHI_PLUS,
                               BellLabel.PHI_PLUS, True, True,
                               EveRecord(rid, (eve_basis,), (eve_outcome,)))

        records = [record(3, BasisType.TYPE_I, BellLabel.PHI_PLUS),
                   record(4, BasisType.TYPE_II, BellLabel.CHI_PLUS)]
        assert eve_information(records, KeyBits([0] * 4, [3, 4], [True, True])) == 0.5
        # A key that gives round 3 one bit, as a different-basis round, is
        # not scored as given.
        wrong = KeyBits([0] * 3, [3, 4], [False, True])
        for estimator in (eve_information, eve_guess_accuracy):
            with pytest.raises(ValueError, match="round 3 the wrong same-basis flag"):
                estimator(records, wrong)

    def test_guess_accuracy_five_sixths(self):
        exact = oracle.single_eve_guess_accuracy()
        assert abs(exact - 5.0 / 6.0) < 1e-12
        records, _, bob = _keyed_batch(
            20_000, 77, AttackConfig(AttackKind.SINGLE_INTERCEPT)
        )
        estimate = eve_guess_accuracy(records, bob)
        assert abs(estimate - exact) <= 0.01

    def test_key_error_rate_matches_oracle(self):
        exact = oracle.single_key_bit_error()
        records, alice, bob = _keyed_batch(
            20_000, 78, AttackConfig(AttackKind.SINGLE_INTERCEPT)
        )
        errors = sum(a != b for a, b in zip(alice.bits, bob.bits))
        rate = errors / len(alice.bits)
        assert abs(rate - exact) <= 3 * math.sqrt(exact * (1 - exact) / len(alice.bits))


class TestExactKnowledge:
    """Eve's knowledge and guess scores against the oracle, label by label."""

    @pytest.mark.parametrize("basis", list(BasisType))
    @pytest.mark.parametrize("sent", list(BellLabel))
    def test_knows_outcome_matches_oracle_support(self, sent, basis):
        support = oracle.support(sent.value, basis.value)
        assert knows_outcome(sent, basis) is (len(support) == 1)

    @pytest.mark.parametrize("basis", list(BasisType))
    @pytest.mark.parametrize("sent", [None, *BellLabel])
    def test_guess_scores_are_exact_quarters(self, sent, basis):
        for tag, pos in ((SAME, 0), (SAME, 1), (DIFF, 0)):
            score = guess_score(sent, basis, tag, pos)
            # Every posterior is a number of quarters, so is every score.
            assert (4 * score).is_integer(), (tag, pos, score)
            expected = oracle.guess_probability(
                None if sent is None else sent.value, basis.value, tag == SAME, pos
            )
            assert score == round(4 * expected) / 4
