"""The columnar batch engine against the scalar reference pipeline.

``run_batch`` simulates whole blocks of rounds as numpy columns. These
tests replay the same configurations one round at a time through
``run_round``, ``sift`` and ``verify_sample``, extract the keys and Eve's
estimators with the per-record reference of ``reference.py``, and require
identical records, keys and stats. The public ``build_keys``, Eve
estimators and ``detection_probability`` run the engine's kernels on the
records, so they are held to the same reference.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperqkd
import reference as ref
from hyperqkd import (
    EKERT_BITS_PER_PAIR,
    AttackConfig,
    AttackKind,
    BasisType,
    BatchStats,
    EveBasisStrategy,
    RandomSource,
    SimConfig,
    run_batch,
    run_round,
    sift,
    verify_sample,
)
from hyperqkd import adversary, montecarlo, protocol

ATTACKS = [
    None,
    AttackConfig(AttackKind.SINGLE_INTERCEPT),
    AttackConfig(AttackKind.SINGLE_INTERCEPT, EveBasisStrategy.FIXED_SAME),
    AttackConfig(AttackKind.SINGLE_INTERCEPT, EveBasisStrategy.FIXED_SAME,
                 BasisType.TYPE_II),
    AttackConfig(AttackKind.DOUBLE_INTERCEPT),
    AttackConfig(AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_SAME),
    AttackConfig(AttackKind.DOUBLE_INTERCEPT, EveBasisStrategy.FIXED_DIFFERENT,
                 BasisType.TYPE_II),
]


def estimates(module, records, groups, consumed, attack):
    """Both keys, Eve's two estimators and the detection strata, by
    ``module``'s ``build_keys``, ``eve_information``, ``eve_guess_accuracy``
    and ``detection_probability``."""
    alice, bob = module.build_keys(groups, consumed)
    eve = dict(eve_information=None, eve_guess_accuracy=None)
    detection = None
    if attack is not None:
        eve = dict(eve_information=module.eve_information(records, bob),
                   eve_guess_accuracy=module.eve_guess_accuracy(records, bob))
        if attack.kind is AttackKind.DOUBLE_INTERCEPT:
            detection = module.detection_probability(records)
    return alice, bob, eve, detection


def reference(config):
    """Records, keys and stats of ``config`` from the scalar round, sifting
    and verification functions and the per-record reference. The public
    scalar adapters must give the same keys and estimators on the same
    records."""
    records = [
        run_round(i, config.attack, config.efficiency,
                  RandomSource.for_round(config.seed, i))
        for i in range(config.rounds)
    ]
    groups = sift(records)
    verification, consumed = verify_sample(
        groups, config.verify_fraction,
        RandomSource.for_stream(config.seed, montecarlo._VERIFY_STREAM),
    )
    alice, bob, eve, detection = estimates(ref, records, groups, consumed, config.attack)
    assert estimates(hyperqkd, records, groups, consumed, config.attack) == (
        alice, bob, eve, detection)
    stats = reference_stats(
        config,
        coincidences=len(groups.same_basis) + len(groups.diff_basis),
        same_n=len(groups.same_basis),
        mismatches=sum(
            r.alice_outcome is not r.bob_outcome for r in groups.same_basis
        ),
        verification=verification,
        key_len=len(alice),
        key_errors=sum(a != b for a, b in zip(alice.bits, bob.bits)),
        detection=detection,
        eve_information_se=None,
        **eve,
    )
    return tuple(records), alice, bob, stats


def reference_stats(config, *, coincidences, same_n, mismatches, verification,
                    key_len, key_errors, eve_information, eve_information_se,
                    eve_guess_accuracy, detection):
    """BatchStats from the scalar pipeline's counts, by the estimators'
    definitions."""
    diff_n = coincidences - same_n
    bpc = bpc_se = ratio = ratio_se = None
    if coincidences:
        bpc = (2 * same_n + diff_n) / coincidences
        bpc_se = ref.rate(same_n, coincidences)[1]
        ratio = bpc / EKERT_BITS_PER_PAIR
        ratio_se = bpc_se / EKERT_BITS_PER_PAIR
    coincidence_rate, coincidence_se = ref.rate(coincidences, config.rounds)
    mism_rate, mism_se = ref.rate(mismatches, same_n)
    key_err, key_err_se = ref.rate(key_errors, key_len)
    return BatchStats(
        rounds=config.rounds,
        coincidences=coincidences,
        coincidence_rate=coincidence_rate,
        coincidence_rate_se=coincidence_se,
        same_basis_count=same_n,
        diff_basis_count=diff_n,
        discarded_count=config.rounds - coincidences,
        bits_per_coincidence=bpc,
        bits_per_coincidence_se=bpc_se,
        ekert_ratio=ratio,
        ekert_ratio_se=ratio_se,
        same_basis_mismatches=mismatches,
        same_basis_mismatch_rate=mism_rate,
        same_basis_mismatch_se=mism_se,
        key_length=key_len,
        key_bit_error_rate=key_err,
        key_bit_error_se=key_err_se,
        verification=verification,
        eve_information=eve_information,
        eve_information_se=eve_information_se,
        eve_guess_accuracy=eve_guess_accuracy,
        detection=detection,
    )


def clustered_se(records, key, information):
    """Eve-information SE by its definition, one round at a time."""
    by_id = {rec.round_id: rec for rec in records}
    widths = {}
    for rid, _ in key.provenance:
        widths[rid] = widths.get(rid, 0) + 1
    total = 0.0
    for rid, width in widths.items():
        known = ref.eve_knows(by_id[rid])
        total += (width * known - information * width) ** 2
    return math.sqrt(total) / len(key)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rounds=st.integers(1, 250),
    efficiency=st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.05, 1.0)),
    attack=st.sampled_from(ATTACKS),
    verify_fraction=st.sampled_from([0.0, 0.1, 0.6]),
    block=st.sampled_from([3, 64, montecarlo._BLOCK_ROUNDS]),
)
@example(seed=7, rounds=50, efficiency=0.9, attack=ATTACKS[4], verify_fraction=0.1,
         block=8)
def test_batch_equals_scalar_reference(seed, rounds, efficiency, attack,
                                       verify_fraction, block):
    config = SimConfig(rounds=rounds, seed=seed, efficiency=efficiency,
                       attack=attack, verify_fraction=verify_fraction)
    assert_matches_reference(config, block)


def assert_matches_reference(config, block=montecarlo._BLOCK_ROUNDS):
    """``run_batch(config)`` in blocks of ``block`` rounds equals the scalar
    pipeline; returns the batch result."""
    # A small block makes the batch cross block boundaries.
    with mock.patch.object(montecarlo, "_BLOCK_ROUNDS", block):
        result = run_batch(config)
    records, alice, bob, stats = reference(config)
    assert result.records == records
    assert result.alice_key == alice
    assert result.bob_key == bob
    assert result.alice_key.as_string() == alice.as_string()
    assert result.alice_key.provenance == alice.provenance
    for got, want in ((result.alice_key, alice), (result.bob_key, bob)):
        assert all(map(np.array_equal, got.rounds, want.rounds))
        assert not any(arr.flags.writeable for arr in (*got.rounds, *want.rounds))
    # No key bit is the filler that pads a different-basis round's row.
    for key in (result.alice_key, result.bob_key):
        assert set(key.bits) <= {0, 1}
    got_se = result.stats.eve_information_se
    assert dataclasses.replace(result.stats, eve_information_se=None) == stats
    if config.attack is None or not len(bob):
        assert got_se is None
    else:
        assert got_se == pytest.approx(
            clustered_se(records, bob, stats.eve_information), rel=1e-12, abs=1e-15
        )
    return result


def _flip_bit(rows):
    rows[0, 0] ^= 1  # Phi+'s first same-basis bit


def _add_quarter(quarters):
    quarters[0] += 1  # Eve's Phi+ against a type-I same-basis round


@pytest.mark.parametrize("module,table,corrupt", [
    (protocol, "_BIT_ROWS", _flip_bit),
    (adversary, "_GUESS_QUARTERS", _add_quarter),
], ids=["bit-rows", "guess-quarters"])
def test_reference_catches_a_wrong_table_entry(module, table, corrupt):
    # The engine and the public adapters share each table, so only the
    # per-record reference can see a wrong entry.
    config = SimConfig(rounds=400, seed=11, efficiency=1.0, attack=ATTACKS[1])
    assert_matches_reference(config)
    wrong = getattr(module, table).copy()
    corrupt(wrong)
    with mock.patch.object(module, table, wrong), pytest.raises(AssertionError):
        assert_matches_reference(config)


def test_empty_key_under_attack():
    result = assert_matches_reference(
        SimConfig(rounds=1, seed=1, efficiency=0.05, attack=ATTACKS[1])
    )
    assert result.stats.key_length == 0
    assert result.stats.eve_information is None
    assert result.stats.eve_guess_accuracy is None
    assert result.stats.eve_information_se is None


@pytest.mark.parametrize("attack", ATTACKS, ids=str)
def test_no_verification(attack):
    result = assert_matches_reference(
        SimConfig(rounds=400, seed=11, efficiency=0.8, attack=attack, verify_fraction=0.0)
    )
    assert result.stats.verification.compared_rounds == 0


def test_key_of_different_basis_rounds_only():
    # Verification consumes both same-basis rounds, so every key row is one
    # bit and a filler.
    result = assert_matches_reference(
        SimConfig(rounds=8, seed=3, efficiency=1.0, attack=ATTACKS[1], verify_fraction=0.6)
    )
    assert result.stats.same_basis_count == 2
    assert len(result.bob_key) == 6
    assert {tag for _, tag in result.bob_key.provenance} == {"diff"}


@pytest.mark.parametrize("attack", ATTACKS[4:], ids=str)
def test_double_intercept_across_blocks(attack):
    assert_matches_reference(
        SimConfig(rounds=300, seed=5, efficiency=0.9, attack=attack), block=128
    )


def test_eve_information_se_hand_built_key():
    # Rounds: same-basis known, same-basis unknown, different-basis known,
    # different-basis unknown -> 3 of 6 key bits known.
    # known bits K = 2 + 1, their squares A = 4 + 1, all squares B = 4 + 4 + 1 + 1;
    # residuals k_r - info * b_r: 1, -1, 0.5, -0.5
    expected = math.sqrt(1 + 1 + 0.25 + 0.25) / 6
    assert montecarlo.eve_information_se(3, 5, 10, 6) == pytest.approx(expected, rel=1e-15)
    # A binomial SE over the six bits would read sqrt(0.25 / 6), too small.
    assert expected > math.sqrt(0.25 / 6)


def test_threads_sharing_tables_match_serial():
    # Concurrent batches share the module's measurement tables; every batch
    # must still equal its serial result.
    import sys
    import threading

    configs = [
        SimConfig(rounds=3000, seed=seed, efficiency=0.9, attack=attack)
        for seed, attack in zip(range(6), ATTACKS[1:])
    ]
    serial = [run_batch(config) for config in configs]
    results = [None] * len(configs)

    def work(slot):
        results[slot] = run_batch(configs[slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got.stats == want.stats
        assert got.bob_key == want.bob_key
        assert got.records == want.records
