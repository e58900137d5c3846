"""Tests for the round engine, sifting, encodings, keys, and verification."""

import math

import numpy as np
import pytest

from hyperqkd import (
    BasisType,
    BellLabel,
    ConfigurationError,
    EveRecord,
    KeyBits,
    RandomSource,
    RoundRecord,
    SiftGroups,
    VerificationReport,
    basis_labels,
    build_keys,
    choose_basis,
    encode_diff_basis,
    encode_same_basis,
    run_round,
    sift,
    verify_sample,
)

import oracle

# two-sample homogeneity threshold: chi-square, 63 dof, alpha = 0.001
CHI2_63_CRIT = 103.44


def simulate(n, seed, attack=None, efficiency=1.0, **kwargs):
    return [
        run_round(i, attack, efficiency, RandomSource.for_round(seed, i), **kwargs)
        for i in range(n)
    ]


class TestChooseBasis:
    def test_fair_coin(self):
        rng = RandomSource(101)
        n = 100_000
        ones = sum(choose_basis(rng) is BasisType.TYPE_I for _ in range(n))
        assert 0.49 <= ones / n <= 0.51

    def test_seeded_replay(self):
        seq1 = [choose_basis(RandomSource.for_round(9, i)) for i in range(500)]
        seq2 = [choose_basis(RandomSource.for_round(9, i)) for i in range(500)]
        assert seq1 == seq2

    def test_independent_parties_uniform_pairs(self):
        n = 100_000
        counts = {}
        for i in range(n):
            a = choose_basis(RandomSource.for_round(11, i))
            b = choose_basis(RandomSource.for_round(12, i))
            counts[(a, b)] = counts.get((a, b), 0) + 1
        se = math.sqrt(0.25 * 0.75 / n)
        for pair in counts:
            assert abs(counts[pair] / n - 0.25) <= 3 * se
        assert len(counts) == 4

    def test_one_draw_consumed(self):
        rng_a = RandomSource(3)
        rng_b = RandomSource(3)
        choose_basis(rng_a)
        rng_b.uniform()
        assert rng_a.uniform() == rng_b.uniform()


class TestRunRound:
    def test_forced_same_bases_always_agree(self):
        for basis in BasisType:
            for i in range(2000):
                rec = run_round(
                    i, None, 1.0, RandomSource.for_round(21, i),
                    alice_basis=basis, bob_basis=basis,
                )
                assert rec.alice_outcome is rec.bob_outcome

    def test_forced_cross_bases_land_in_allowed_pairs(self):
        allowed = oracle.allowed_cross_pairs()
        counts = {}
        n = 20_000
        for i in range(n):
            rec = run_round(
                i, None, 1.0, RandomSource.for_round(22, i),
                alice_basis=BasisType.TYPE_I, bob_basis=BasisType.TYPE_II,
            )
            key = (rec.alice_outcome.value, rec.bob_outcome.value)
            assert key in allowed
            counts[key] = counts.get(key, 0) + 1
        se = math.sqrt(0.125 * 0.875 / n)
        for pair in allowed:
            assert abs(counts[pair] / n - 0.125) <= 3 * se

    def test_phi_plus_pairs_with_omega_plus_or_chi_minus(self):
        partners = set()
        for i in range(3000):
            rec = run_round(
                i, None, 1.0, RandomSource.for_round(23, i),
                alice_basis=BasisType.TYPE_I, bob_basis=BasisType.TYPE_II,
            )
            if rec.alice_outcome is BellLabel.PHI_PLUS:
                partners.add(rec.bob_outcome)
        assert partners == {BellLabel.OMEGA_PLUS, BellLabel.CHI_MINUS}

    def test_detection_efficiency(self):
        n = 100_000
        records = simulate(n, 24, efficiency=0.5)
        coincident = sum(r.coincident for r in records)
        assert abs(coincident / n - 0.25) <= 0.01
        detected_a = sum(r.alice_detected for r in records)
        assert abs(detected_a / n - 0.5) <= 0.01

    def test_undetected_rounds_have_no_outcome(self):
        records = simulate(3000, 25, efficiency=0.3)
        for rec in records:
            assert (rec.alice_outcome is not None) == rec.alice_detected
            assert (rec.bob_outcome is not None) == rec.bob_detected

    def test_outcomes_match_announced_bases(self):
        for rec in simulate(2000, 26):
            assert rec.alice_outcome.basis is rec.alice_basis
            assert rec.bob_outcome.basis is rec.bob_basis

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), "0.5", True, None])
    def test_invalid_efficiency(self, bad):
        # A string, a bool and None are no efficiency, as SimConfig rules.
        with pytest.raises(ConfigurationError):
            run_round(0, None, bad, RandomSource(0))

    def test_replay_determinism(self):
        a = simulate(500, 27)
        b = simulate(500, 27)
        assert a == b

    def test_marginals_uniform(self):
        n = 100_000
        counts = {lab: 0 for lab in BellLabel}
        per_basis = {basis: 0 for basis in BasisType}
        for rec in simulate(n, 28):
            counts[rec.alice_outcome] += 1
            per_basis[rec.alice_basis] += 1
        for basis in BasisType:
            m = per_basis[basis]
            se = math.sqrt(0.25 * 0.75 / m)
            for lab in basis_labels(basis):
                assert abs(counts[lab] / m - 0.25) <= 3 * se

    def test_mirrored_cross_bases_also_agree_on_bits(self):
        allowed = oracle.allowed_cross_pairs()
        for i in range(5000):
            rec = run_round(
                i, None, 1.0, RandomSource.for_round(44, i),
                alice_basis=BasisType.TYPE_II, bob_basis=BasisType.TYPE_I,
            )
            assert (rec.bob_outcome.value, rec.alice_outcome.value) in allowed
            assert encode_diff_basis(rec.alice_outcome) == encode_diff_basis(rec.bob_outcome)

    def test_measurement_order_does_not_change_statistics(self):
        n = 50_000
        first = {}
        second = {}
        for i in range(n):
            rec = run_round(i, None, 1.0, RandomSource.for_round(29, i))
            key = (rec.alice_basis, rec.bob_basis, rec.alice_outcome, rec.bob_outcome)
            first[key] = first.get(key, 0) + 1
            rec = run_round(
                i, None, 1.0, RandomSource.for_round(30, i), alice_measures_first=False
            )
            key = (rec.alice_basis, rec.bob_basis, rec.alice_outcome, rec.bob_outcome)
            second[key] = second.get(key, 0) + 1
        # two-sample chi-square over all observed joint cells
        stat = 0.0
        for key in set(first) | set(second):
            x, y = first.get(key, 0), second.get(key, 0)
            expected_x = (x + y) / 2.0
            stat += (x - expected_x) ** 2 / expected_x
            stat += (y - expected_x) ** 2 / expected_x
        assert stat <= CHI2_63_CRIT


class TestRoundRecord:
    def test_outcome_requires_detection(self):
        with pytest.raises(ValueError):
            RoundRecord(
                round_id=0,
                alice_basis=BasisType.TYPE_I,
                bob_basis=BasisType.TYPE_I,
                alice_outcome=BellLabel.PHI_PLUS,
                bob_outcome=None,
                alice_detected=False,
                bob_detected=False,
            )

    def test_outcome_must_match_basis(self):
        with pytest.raises(ValueError):
            RoundRecord(
                round_id=0,
                alice_basis=BasisType.TYPE_II,
                bob_basis=BasisType.TYPE_I,
                alice_outcome=BellLabel.PHI_PLUS,
                bob_outcome=None,
                alice_detected=True,
                bob_detected=False,
            )

    def test_eve_trace_must_be_of_its_round(self):
        trace = EveRecord(7, (BasisType.TYPE_I,), (BellLabel.PSI_MINUS,))
        fields = dict(alice_basis=BasisType.TYPE_I, bob_basis=BasisType.TYPE_I,
                      alice_outcome=None, bob_outcome=None,
                      alice_detected=False, bob_detected=False)
        assert RoundRecord(round_id=7, eve_trace=trace, **fields).eve_trace is trace
        with pytest.raises(ValueError, match="eve_trace of round 7 given for round 8"):
            RoundRecord(round_id=8, eve_trace=trace, **fields)


def _make_record(round_id, a_basis, b_basis, a_out, b_out, a_det=True, b_det=True):
    return RoundRecord(
        round_id=round_id,
        alice_basis=a_basis,
        bob_basis=b_basis,
        alice_outcome=a_out if a_det else None,
        bob_outcome=b_out if b_det else None,
        alice_detected=a_det,
        bob_detected=b_det,
    )


class TestSift:
    def test_partition_is_exhaustive(self):
        records = simulate(5000, 31, efficiency=0.6)
        groups = sift(records)
        total = len(groups.same_basis) + len(groups.diff_basis) + len(groups.discarded)
        assert total == len(records)
        ids = sorted(
            r.round_id
            for group in (groups.same_basis, groups.diff_basis, groups.discarded)
            for r in group
        )
        assert ids == [r.round_id for r in records]

    def test_groups_respect_basis_equality(self):
        groups = sift(simulate(3000, 32))
        for rec in groups.same_basis:
            assert rec.alice_basis is rec.bob_basis
        for rec in groups.diff_basis:
            assert rec.alice_basis is not rec.bob_basis

    def test_balanced_groups(self):
        n = 100_000
        groups = sift(simulate(n, 33))
        se = math.sqrt(0.25 / n)
        assert abs(len(groups.same_basis) / n - 0.5) <= 3 * se

    def test_empty_input(self):
        groups = sift([])
        assert groups == SiftGroups((), (), ())

    def test_missed_detection_is_discarded(self):
        rec = _make_record(
            0, BasisType.TYPE_I, BasisType.TYPE_I, BellLabel.PHI_PLUS,
            BellLabel.PHI_PLUS, b_det=False,
        )
        groups = sift([rec])
        assert groups.discarded == (rec,)
        assert not groups.same_basis and not groups.diff_basis


class TestEncodings:
    def test_two_bit_table(self):
        assert encode_same_basis(BellLabel.PHI_PLUS) == (0, 0)
        assert encode_same_basis(BellLabel.PHI_MINUS) == (0, 1)
        assert encode_same_basis(BellLabel.PSI_PLUS) == (1, 0)
        assert encode_same_basis(BellLabel.PSI_MINUS) == (1, 1)
        assert encode_same_basis(BellLabel.OMEGA_MINUS) == (1, 1)

    def test_two_bit_bijection_per_basis(self):
        for basis in BasisType:
            codes = {encode_same_basis(lab) for lab in basis_labels(basis)}
            assert codes == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_one_bit_table(self):
        assert encode_diff_basis(BellLabel.PHI_PLUS) == 0
        assert encode_diff_basis(BellLabel.OMEGA_PLUS) == 0
        assert encode_diff_basis(BellLabel.PSI_PLUS) == 1
        assert encode_diff_basis(BellLabel.PSI_MINUS) == 0
        assert encode_diff_basis(BellLabel.CHI_MINUS) == 0
        assert encode_diff_basis(BellLabel.CHI_PLUS) == 1

    def test_tables_match_oracle(self):
        for lab in BellLabel:
            assert encode_same_basis(lab) == oracle.CODE2[lab.value]
            assert encode_diff_basis(lab) == oracle.CODE1[lab.value]

    def test_cross_basis_pairs_agree_on_one_bit(self):
        # exhaustively over the allowed pairs, in both orientations
        for a, b in oracle.allowed_cross_pairs():
            assert oracle.CODE1[a] == oracle.CODE1[b]
            assert encode_diff_basis(BellLabel(a)) == encode_diff_basis(BellLabel(b))


class TestBuildKeys:
    def test_counts_and_order(self):
        r0 = _make_record(0, BasisType.TYPE_I, BasisType.TYPE_I,
                          BellLabel.PSI_MINUS, BellLabel.PSI_MINUS)
        r1 = _make_record(1, BasisType.TYPE_I, BasisType.TYPE_II,
                          BellLabel.PHI_PLUS, BellLabel.OMEGA_PLUS)
        r2 = _make_record(2, BasisType.TYPE_II, BasisType.TYPE_II,
                          BellLabel.CHI_MINUS, BellLabel.CHI_MINUS)
        groups = sift([r0, r1, r2])
        alice, bob = build_keys(groups)
        assert alice.bits == (1, 1, 0, 0, 1)
        assert bob.bits == alice.bits
        assert alice.provenance == ((0, "same"), (0, "same"), (1, "diff"),
                                    (2, "same"), (2, "same"))

    def test_exclusions_remove_rounds(self):
        r0 = _make_record(0, BasisType.TYPE_I, BasisType.TYPE_I,
                          BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        r1 = _make_record(1, BasisType.TYPE_I, BasisType.TYPE_II,
                          BellLabel.PHI_PLUS, BellLabel.CHI_MINUS)
        groups = sift([r0, r1])
        alice, bob = build_keys(groups, {0})
        assert alice.bits == (0,)
        assert alice.provenance == ((1, "diff"),)

    def test_all_rounds_excluded(self):
        records = simulate(50, 34)
        groups = sift(records)
        alice, bob = build_keys(groups, {r.round_id for r in records})
        assert alice.bits == () and bob.bits == ()

    def test_keys_identical_without_attack(self):
        groups = sift(simulate(20_000, 35))
        alice, bob = build_keys(groups)
        assert alice.bits == bob.bits
        assert alice.provenance == bob.provenance

    def test_bit_rate_near_three_halves(self):
        n = 20_000
        groups = sift(simulate(n, 36))
        alice, _ = build_keys(groups)
        coincidences = len(groups.same_basis) + len(groups.diff_basis)
        assert abs(len(alice.bits) / coincidences - 1.5) <= 0.02

    def test_length_matches_group_counts(self):
        groups = sift(simulate(5000, 37, efficiency=0.7))
        alice, _ = build_keys(groups)
        assert len(alice.bits) == 2 * len(groups.same_basis) + len(groups.diff_basis)


class TestVerifySample:
    def test_no_attack_no_mismatch(self):
        groups = sift(simulate(10_000, 38))
        report, consumed = verify_sample(groups, 0.1, RandomSource(1))
        assert report.mismatches == 0
        assert report.mismatch_rate == 0.0
        assert not report.undefined
        assert report.compared_rounds == math.ceil(0.1 * len(groups.same_basis))
        assert len(consumed) == report.compared_rounds

    def test_consumed_rounds_are_same_basis(self):
        groups = sift(simulate(5000, 39))
        _, consumed = verify_sample(groups, 0.2, RandomSource(2))
        same_ids = {r.round_id for r in groups.same_basis}
        assert consumed <= same_ids

    def test_consumed_rounds_leave_key(self):
        groups = sift(simulate(5000, 40))
        report, consumed = verify_sample(groups, 0.25, RandomSource(3))
        alice, _ = build_keys(groups, consumed)
        used = {rid for rid, _ in alice.provenance}
        assert not (used & consumed)
        assert len(alice.bits) == (
            2 * (len(groups.same_basis) - report.compared_rounds)
            + len(groups.diff_basis)
        )

    def test_empty_groups_undefined(self):
        report, consumed = verify_sample(SiftGroups((), (), ()), 0.5, RandomSource(4))
        assert report.undefined
        assert report.compared_rounds == 0
        assert consumed == frozenset()

    def test_sample_is_unbiased(self):
        groups = sift(simulate(2000, 41))
        n = len(groups.same_basis)
        hits = {r.round_id: 0 for r in groups.same_basis}
        trials = 400
        for t in range(trials):
            _, consumed = verify_sample(groups, 0.1, RandomSource(1000 + t))
            for rid in consumed:
                hits[rid] += 1
        k = math.ceil(0.1 * n)
        expected = trials * k / n
        se = math.sqrt(trials * (k / n) * (1 - k / n))
        for rid, count in hits.items():
            assert abs(count - expected) <= 5 * se

    @pytest.mark.parametrize("bad", [1.0, -0.1, 1.5, float("nan"), "0.5", True, None])
    def test_fraction_out_of_range(self, bad):
        groups = sift(simulate(100, 42))
        with pytest.raises(ConfigurationError):
            verify_sample(groups, bad, RandomSource(0))

    def test_fraction_zero_compares_nothing(self):
        # [0, 1), the range SimConfig accepts; at 0 no uniform is drawn.
        groups = sift(simulate(100, 42))
        assert groups.same_basis
        rand = RandomSource(0)
        assert verify_sample(groups, 0.0, rand) == (VerificationReport(0, 0, None), frozenset())
        assert rand.next_u64() == RandomSource(0).next_u64()

    def test_deterministic_given_seed(self):
        groups = sift(simulate(3000, 43))
        r1, c1 = verify_sample(groups, 0.15, RandomSource(99))
        r2, c2 = verify_sample(groups, 0.15, RandomSource(99))
        assert r1 == r2 and c1 == c2


class TestKeyBits:
    def test_as_string(self):
        key = KeyBits((1, 0, 1, 1), (0, 1, 2), (True, False, False))
        assert key.as_string() == "1011"
        assert len(key) == 4

    def test_rounds_give_provenance_and_equality(self):
        bits = (1, 0, 1, 1, 1, 0)
        round_ids, same = [0, 3, 5, 8], [True, False, True, False]
        key = KeyBits(bits, round_ids, same)
        assert key.provenance == (
            (0, "same"), (0, "same"), (3, "diff"), (5, "same"), (5, "same"), (8, "diff")
        )
        assert key.bits == bits
        as_arrays = KeyBits(np.array(bits, dtype=np.uint8), np.array(round_ids),
                            np.array(same))
        assert key == as_arrays and hash(key) == hash(as_arrays)
        assert key != KeyBits(bits, [0, 3, 5, 9], same)

    def test_equal_keys_hash_equal_whatever_the_id_dtype(self):
        bits, same = np.array([1, 0, 1], dtype=np.uint8), np.array([True, False])
        narrow = KeyBits(bits, np.array([4, 9], dtype=np.int32), same)
        wide = KeyBits(bits, np.array([4, 9], dtype=np.int64), same)
        assert narrow == wide
        assert hash(narrow) == hash(wide)
        assert len({narrow, wide}) == 1


class TestKeyRounds:
    @pytest.mark.parametrize(
        "bits, round_ids, same, match",
        [
            # not one-dimensional
            ([[1, 0]], [1], [True], "bits must be a 1-D"),
            ([1, 0], [[1]], [True], "round_ids must be a 1-D"),
            ([1, 0], [1], True, "same must be a 1-D"),
            # values their dtype cannot hold
            (np.array([256, 1]), [1], [True], "bits must be a 1-D array of uint8"),
            ([1], [1.5], [False], "round_ids must be a 1-D array of int64"),
            ([1], [1], [2], "same must be a 1-D array of bool"),
            # bits other than 0 and 1
            ([5, 7], [1, 2, 3], [True] * 3, "0 or 1"),
            ([1, 2], [1], [True], "0 or 1"),
            # one id and one flag per round
            ([1, 0, 1], [1, 2], [True], "equal lengths"),
            # each round once, in round order
            ([0] * 5, [3, 3, 3, 4], [False, False, False, True], "strictly increasing"),
            ([1, 0], [4, 2], [False, False], "strictly increasing"),
            # two bits per same-basis round, one per other round
            ([1], [0], [True], "give 2 bits, not 1"),
            ([1, 0, 1], [0, 1], [True, True], "give 4 bits, not 3"),
            ([1, 0], [1, 2, 3], [False] * 3, "give 3 bits, not 2"),
        ],
    )
    def test_malformed_key_is_rejected(self, bits, round_ids, same, match):
        with pytest.raises(ValueError, match=match):
            KeyBits(bits, round_ids, same)

    def test_constructor_keeps_its_arrays_read_only(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        round_ids, same = np.array([4, 9]), np.array([True, False])
        key = KeyBits(bits, round_ids, same)
        got_ids, got_same = key.rounds
        assert got_ids is round_ids and got_same is same
        for arr in (bits, round_ids, same):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert key.provenance == ((4, "same"), (4, "same"), (9, "diff"))


def test_threaded_rounds_match_serial():
    # immutable state tables: concurrent rounds with per-thread RandomSources
    # must reproduce the serial results exactly
    import threading

    n, seed = 2000, 88
    serial = simulate(n, seed)
    chunks = [(0, 500), (500, 1000), (1000, 1500), (1500, 2000)]
    results = [None] * len(chunks)

    def work(slot, lo, hi):
        results[slot] = [
            run_round(i, None, 1.0, RandomSource.for_round(seed, i))
            for i in range(lo, hi)
        ]

    threads = [
        threading.Thread(target=work, args=(slot, lo, hi))
        for slot, (lo, hi) in enumerate(chunks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    threaded = [rec for part in results for rec in part]
    assert threaded == serial
