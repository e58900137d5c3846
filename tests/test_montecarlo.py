"""Tests for the batch driver, estimators, and reproducibility contracts."""

import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperqkd import (
    AttackConfig,
    AttackKind,
    ConfigurationError,
    EveBasisStrategy,
    EKERT_BITS_PER_PAIR,
    SimConfig,
    detection_probability,
    ekert_ratio,
    run_batch,
)
from hyperqkd import montecarlo

import oracle


class TestSimConfig:
    def test_valid_config_passes(self):
        SimConfig(rounds=10, seed=0, efficiency=0.5, verify_fraction=0.0).validate()

    def test_each_violation_listed(self):
        config = SimConfig(
            rounds=0, seed=-1, efficiency=2.0, verify_fraction=1.0
        )
        with pytest.raises(ConfigurationError) as excinfo:
            config.validate()
        message = str(excinfo.value)
        for field in ("rounds", "seed", "efficiency", "verify_fraction"):
            assert field in message

    def test_run_batch_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            run_batch(SimConfig(rounds=-5))

    def test_bools_rejected(self):
        # bool is an int subclass; run_batch would otherwise fail inside numpy.
        config = SimConfig(rounds=True, seed=False)
        with pytest.raises(ConfigurationError) as excinfo:
            run_batch(config)
        for field in ("rounds", "seed"):
            assert field in str(excinfo.value)

    @pytest.mark.parametrize("field", ["efficiency", "verify_fraction"])
    @pytest.mark.parametrize("value", ["0.5", None, True, float("nan")])
    def test_fractions_must_be_real_numbers(self, field, value):
        config = SimConfig(rounds=1, **{field: value})
        with pytest.raises(ConfigurationError) as excinfo:
            config.validate()
        assert excinfo.value.fields == (field,)
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)])
    def test_real_fractions_pass(self, value):
        SimConfig(rounds=1, efficiency=value, verify_fraction=value).validate()
        SimConfig(rounds=1, efficiency=1, verify_fraction=0).validate()

    def test_seed_range(self):
        with pytest.raises(ConfigurationError):
            SimConfig(rounds=1, seed=2**64).validate()
        SimConfig(rounds=1, seed=2**64 - 1).validate()

    def test_rounds_range(self):
        # Round i owns draws 3i + 1 to 3i + 3 of one stream of 2**64 states.
        SimConfig(rounds=2**64 // 3).validate()
        with pytest.raises(ConfigurationError, match="rounds must be below") as excinfo:
            SimConfig(rounds=2**64 // 3 + 1).validate()
        assert excinfo.value.fields == ("rounds",)


class TestEkertRatio:
    def test_ideal_rate(self):
        assert abs(ekert_ratio(1.5) - 6.75) <= 1e-12

    def test_baseline_self_ratio(self):
        assert abs(ekert_ratio(EKERT_BITS_PER_PAIR) - 1.0) <= 1e-12

    def test_degenerate(self):
        assert ekert_ratio(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ekert_ratio(-0.1)


class TestRunBatch:
    def test_reproducible_bit_for_bit(self):
        config = SimConfig(rounds=5000, seed=123)
        first = run_batch(config)
        second = run_batch(config)
        assert first.records == second.records
        assert first.stats == second.stats
        assert first.alice_key == second.alice_key
        assert first.bob_key == second.bob_key

    def test_different_seeds_differ(self):
        a = run_batch(SimConfig(rounds=2000, seed=1))
        b = run_batch(SimConfig(rounds=2000, seed=2))
        assert a.records != b.records

    def test_reproducible_under_attack(self):
        # Eve's columns and the detection draws, which the run above lacks.
        config = SimConfig(rounds=8000, seed=9, efficiency=0.9,
                           attack=AttackConfig(AttackKind.DOUBLE_INTERCEPT))
        first = run_batch(config)
        second = run_batch(config)
        assert first.records == second.records
        assert first.stats == second.stats
        assert first.alice_key == second.alice_key
        assert first.bob_key == second.bob_key

    def test_bits_per_coincidence_identity(self):
        result = run_batch(SimConfig(rounds=20_000, seed=10))
        stats = result.stats
        assert stats.bits_per_coincidence == pytest.approx(
            (2 * stats.same_basis_count + stats.diff_basis_count) / stats.coincidences
        )
        assert abs(stats.bits_per_coincidence - 1.5) <= 0.02
        assert abs(stats.ekert_ratio - ekert_ratio(stats.bits_per_coincidence)) <= 1e-12

    def test_no_attack_statistics(self):
        result = run_batch(SimConfig(rounds=20_000, seed=11))
        stats = result.stats
        assert stats.same_basis_mismatch_rate == 0.0
        assert stats.key_bit_error_rate == 0.0
        assert stats.verification.mismatch_rate == 0.0
        assert result.alice_key.bits == result.bob_key.bits
        assert stats.eve_information is None
        assert stats.eve_guess_accuracy is None
        assert stats.detection is None

    def test_verification_consumption_accounting(self):
        result = run_batch(SimConfig(rounds=10_000, seed=12, verify_fraction=0.2))
        stats = result.stats
        expected_len = (
            2 * (stats.same_basis_count - stats.verification.compared_rounds)
            + stats.diff_basis_count
        )
        assert stats.key_length == expected_len
        assert len(result.alice_key.bits) == expected_len
        # headline rate still counts every coincident round
        assert stats.bits_per_coincidence == pytest.approx(
            (2 * stats.same_basis_count + stats.diff_basis_count) / stats.coincidences
        )

    def test_verification_disabled(self):
        result = run_batch(SimConfig(rounds=2000, seed=13, verify_fraction=0.0))
        assert result.stats.verification.undefined
        assert result.stats.key_length == (
            2 * result.stats.same_basis_count + result.stats.diff_basis_count
        )

    def test_efficiency_scaling(self):
        n = 30_000
        result = run_batch(SimConfig(rounds=n, seed=14, efficiency=0.6))
        stats = result.stats
        expected = 0.36
        assert abs(stats.coincidence_rate - expected) <= 3 * math.sqrt(
            expected * (1 - expected) / n
        )
        assert stats.discarded_count == n - stats.coincidences
        # per-coincidence rate unaffected by losses
        assert abs(stats.bits_per_coincidence - 1.5) <= 5 * stats.bits_per_coincidence_se

    def test_single_intercept_estimators(self):
        # verification disabled so the full-key oracle values apply unshifted
        result = run_batch(
            SimConfig(
                rounds=20_000,
                seed=15,
                attack=AttackConfig(AttackKind.SINGLE_INTERCEPT),
                verify_fraction=0.0,
            )
        )
        stats = result.stats
        assert abs(stats.same_basis_mismatch_rate - 0.25) <= 3 * stats.same_basis_mismatch_se
        assert abs(stats.eve_information - 0.5) <= 0.02
        exact_acc = oracle.single_eve_guess_accuracy()
        assert abs(stats.eve_guess_accuracy - exact_acc) <= 0.01
        exact_err = oracle.single_key_bit_error()
        assert abs(stats.key_bit_error_rate - exact_err) <= 5 * stats.key_bit_error_se
        assert stats.detection is None

    def test_stats_serialization_round_trip(self):
        result = run_batch(SimConfig(rounds=1000, seed=16))
        as_dict = result.stats.to_dict()
        assert as_dict["bits_per_coincidence"] == result.stats.bits_per_coincidence
        assert as_dict["verification"]["compared_rounds"] == (
            result.stats.verification.compared_rounds
        )

    def test_no_coincidence_batch_degrades_cleanly(self):
        # 40 rounds at 1% per-photon detection: typically zero coincidences
        result = run_batch(SimConfig(rounds=40, seed=9, efficiency=0.01))
        stats = result.stats
        assert stats.coincidences == 0
        assert stats.bits_per_coincidence is None
        assert stats.ekert_ratio is None
        assert stats.same_basis_mismatch_rate is None
        assert stats.key_bit_error_rate is None
        assert stats.verification.undefined
        assert stats.key_length == 0
        assert result.alice_key.bits == ()
        attacked = run_batch(
            SimConfig(rounds=40, seed=9, efficiency=0.01,
                      attack=AttackConfig(AttackKind.SINGLE_INTERCEPT))
        )
        assert attacked.stats.eve_information is None
        assert attacked.stats.eve_guess_accuracy is None

    def test_guess_accuracy_is_an_exact_count(self):
        # hyperqkd --rounds 37 --seed 18446744073709551615 --attack single
        # --eve-bases same: 47 key bits, guessed right 172 quarters of the time.
        result = run_batch(SimConfig(
            rounds=37, seed=2**64 - 1,
            attack=AttackConfig(AttackKind.SINGLE_INTERCEPT, EveBasisStrategy.FIXED_SAME),
        ))
        stats = result.stats
        records = {rec.round_id: rec for rec in result.records}
        quarters = 0
        prev, pos = None, 0
        for rid, tag in result.bob_key.provenance:
            pos = pos + 1 if rid == prev else 0
            prev = rid
            rec = records[rid]
            score = oracle.guess_probability(
                rec.eve_trace.outcomes[-1].value, rec.bob_basis.value, tag == "same", pos
            )
            quarters += round(4 * score)
        n = 4 * stats.key_length
        assert (stats.key_length, quarters) == (47, 172)
        assert (stats.eve_guess_accuracy * n).is_integer()
        assert stats.eve_guess_accuracy == float(Fraction(quarters, n)) == 43 / 47

    def test_transient_memory_is_bounded_by_one_block(self):
        # Beyond what its result holds, a batch works in the coincident
        # patterns (at most 2 bytes per round), temporaries of one block and
        # the verification picks': no per-round flags, no index copy of the
        # patterns and no whole-batch gather.
        config = SimConfig(rounds=100_000, seed=1, efficiency=0.9,
                           attack=AttackConfig(AttackKind.SINGLE_INTERCEPT))
        run_batch(config)  # builds the attack shape's cached tables
        gc.collect()
        tracemalloc.start()
        try:
            result = run_batch(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats.key_length > 100_000
        assert peak - held <= 750_000

    def test_result_holds_at_most_three_bytes_per_round(self):
        # A batch keeps at most 1.5 bytes per round for each key's bits and
        # the picks; its rounds are drawn again for the records, and a key's
        # rounds are derived only when asked for.
        rounds = 200_000
        for config in (SimConfig(rounds=rounds, seed=1, efficiency=0.9,
                                 attack=AttackConfig(AttackKind.DOUBLE_INTERCEPT)),
                       SimConfig(rounds=rounds, seed=1)):
            run_batch(config)  # builds the attack shape's cached tables
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = run_batch(config)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert result.stats.key_length > rounds
            assert held <= 3 * rounds, config

    def test_key_rounds_are_derived_in_memory_of_one_block(self):
        # The first read of a key's rounds draws the batch again block by
        # block into the two result arrays, allocated once.
        config = SimConfig(rounds=1_000_000, seed=1, efficiency=0.9,
                           attack=AttackConfig(AttackKind.DOUBLE_INTERCEPT))
        result = run_batch(config)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ids, same = result.alice_key.rounds
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(ids) == result.stats.coincidences - result.stats.verification.compared_rounds
        # A block's temporaries are a few arrays of 8 bytes per round.
        assert peak <= ids.nbytes + same.nbytes + 64 * montecarlo._BLOCK_ROUNDS

    def test_records_are_built_in_memory_of_one_block(self):
        # Each block's rounds become records before the next block is
        # drawn, so beyond the records a first read holds a few lists of one
        # block: no array or list over the whole batch but the result.
        result = run_batch(SimConfig(rounds=100_000, seed=1, efficiency=0.9))
        gc.collect()
        tracemalloc.start()
        try:
            records = result.records
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 100_000
        assert peak - held <= 128 * montecarlo._BLOCK_ROUNDS

    def test_keys_without_errors_are_one_object(self):
        clean = run_batch(SimConfig(rounds=3000, seed=3, efficiency=0.9))
        assert clean.stats.key_bit_error_rate == 0.0
        assert clean.bob_key is clean.alice_key
        attacked = run_batch(SimConfig(rounds=3000, seed=3,
                                       attack=AttackConfig(AttackKind.SINGLE_INTERCEPT)))
        assert attacked.stats.key_bit_error_rate > 0.0
        assert attacked.bob_key != attacked.alice_key
        assert all(a is b for a, b in zip(attacked.bob_key.rounds, attacked.alice_key.rounds))


class TestDetectionProbability:
    def test_fixed_same_only_populates_equal_stratum(self):
        attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_SAME)
        result = run_batch(SimConfig(rounds=20_000, seed=17, attack=attack))
        det = result.stats.detection
        exact = oracle.double_same_basis_mismatch(True)
        assert det.diff_bases_rate is None
        assert det.diff_bases_compared == 0
        assert det.same_bases_compared == result.stats.same_basis_count
        # The engine's exact law: every pattern of the shape is equally
        # likely, so the stratum's expected rate is a ratio of pattern
        # counts (test_code_law.py tests the histogram against that law).
        counters = montecarlo._patterns(attack).counters.sum(axis=1)
        compared, mismatches = counters[montecarlo._STRATA].tolist()
        assert compared == counters[montecarlo._SAME]
        # The oracle sums floats; the table's ratio is the exact 1/4.
        assert Fraction(mismatches, compared) == Fraction(1, 4)
        assert abs(mismatches / compared - exact) <= 1e-12
        # the public verification subsample sees the same rate
        assert abs(result.stats.verification.mismatch_rate - exact) <= 0.05

    def test_fixed_different_only_populates_diff_stratum(self):
        attack = AttackConfig(
            AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_DIFFERENT
        )
        result = run_batch(SimConfig(rounds=20_000, seed=18, attack=attack))
        det = result.stats.detection
        exact = oracle.double_same_basis_mismatch(False)
        assert det.same_bases_rate is None
        assert abs(det.diff_bases_rate - exact) <= 3 * det.diff_bases_se
        assert abs(result.stats.verification.mismatch_rate - exact) <= 0.05

    def test_random_strategy_populates_both(self):
        attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT)
        result = run_batch(SimConfig(rounds=30_000, seed=19, attack=attack))
        det = result.stats.detection
        assert abs(det.same_bases_rate - 0.25) <= 3 * det.same_bases_se
        assert abs(det.diff_bases_rate - 0.5) <= 3 * det.diff_bases_se
        assert det.same_bases_compared + det.diff_bases_compared == (
            result.stats.same_basis_count
        )

    def test_rejects_non_double_batches(self):
        no_attack = run_batch(SimConfig(rounds=200, seed=20))
        with pytest.raises(ValueError):
            detection_probability(no_attack.records)
        single = run_batch(
            SimConfig(rounds=200, seed=21, attack=AttackConfig(AttackKind.SINGLE_INTERCEPT))
        )
        with pytest.raises(ValueError):
            detection_probability(single.records)

    def test_double_key_error_matches_oracle(self):
        for strategy, equal in (
            (EveBasisStrategy.FIXED_SAME, True),
            (EveBasisStrategy.FIXED_DIFFERENT, False),
        ):
            attack = AttackConfig(AttackKind.DOUBLE_INTERCEPT, strategy)
            result = run_batch(
                SimConfig(rounds=20_000, seed=23, attack=attack, verify_fraction=0.0)
            )
            exact = oracle.double_key_bit_error(equal)
            stats = result.stats
            assert abs(stats.key_bit_error_rate - exact) <= 5 * stats.key_bit_error_se
