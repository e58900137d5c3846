"""Per-record reference for key extraction, Eve's estimators and the
detection strata.

The package computes each of these with one kernel over label codes
(``protocol.key_bits``, ``adversary.eve_counts``, ``montecarlo._detection``),
which both the batch engine and the public scalar functions call. These are
the same quantities by their definitions, one record at a time, on the
oracle's literal tables (``CODE1``, ``CODE2``, ``support``,
``guess_probability``). From hyperqkd only result types are imported, so a
wrong entry in one of the package's tables shows up as a difference here.
"""

import math

import oracle
from hyperqkd import DetectionStats, KeyBits


def build_keys(groups, verify_exclusions=()):
    """Both parties' keys from sifted rounds, in round-id order, skipping
    the rounds verification consumed."""
    excluded = frozenset(verify_exclusions)
    ordered = sorted(
        (rec for group in (groups.same_basis, groups.diff_basis) for rec in group
         if rec.round_id not in excluded),
        key=lambda rec: rec.round_id,
    )
    alice, bob = [], []
    for rec in ordered:
        if rec.same_basis:
            alice.extend(oracle.CODE2[rec.alice_outcome.value])
            bob.extend(oracle.CODE2[rec.bob_outcome.value])
        else:
            alice.append(oracle.CODE1[rec.alice_outcome.value])
            bob.append(oracle.CODE1[rec.bob_outcome.value])
    round_ids = [rec.round_id for rec in ordered]
    same = [rec.same_basis for rec in ordered]
    return KeyBits(alice, round_ids, same), KeyBits(bob, round_ids, same)


def eve_knows(rec):
    """Whether the state Eve resent toward the receiver in ``rec`` has one
    possible outcome in the receiver's basis (False when she did not touch
    the round)."""
    trace = rec.eve_trace
    return trace is not None and len(
        oracle.support(trace.outcomes[-1].value, rec.bob_basis.value)) == 1


def key_records(records, key):
    """The record of each round of ``key``, in key order, with its
    same-basis flag. Raises ValueError on a duplicate record, a key round
    with no record or a flag that disagrees with the record's bases."""
    by_id = {}
    for rec in records:
        if rec.round_id in by_id:
            raise ValueError(f"duplicate record for round {rec.round_id}")
        by_id[rec.round_id] = rec
    rounds = []
    round_ids, same = key.rounds
    for rid, is_same in zip(round_ids.tolist(), same.tolist()):
        rec = by_id.get(rid)
        if rec is None:
            raise ValueError(f"key bit references round {rid} with no record")
        if is_same != rec.same_basis:
            raise ValueError(f"key gives round {rid} the wrong same-basis flag")
        rounds.append((rec, is_same))
    return rounds


def eve_information(records, key):
    """Fraction of the receiver's key bits whose round Eve knows, or None
    for an empty key."""
    rounds = key_records(records, key)
    if not len(key):
        return None
    return sum(1 + same for rec, same in rounds if eve_knows(rec)) / len(key)


def eve_guess_accuracy(records, key):
    """Mean probability that Eve's best guess of a receiver key bit is
    right, or None for an empty key."""
    rounds = key_records(records, key)
    if not len(key):
        return None
    quarters = 0
    for rec, same in rounds:
        trace = rec.eve_trace
        sent = None if trace is None else trace.outcomes[-1].value
        for k in range(1 + same):
            # Every posterior is a number of quarters; the oracle's float
            # Born probabilities are rounded to it.
            quarters += round(4 * oracle.guess_probability(sent, rec.bob_basis.value, same, k))
    return quarters / (4 * len(key))


def rate(count, n):
    """``count / n`` and its binomial standard error, or two Nones at n = 0."""
    if not n:
        return None, None
    p = count / n
    return p, math.sqrt(p * (1.0 - p) / n)


def detection_probability(records):
    """Same-basis mismatch rates of the coincident rounds, split by whether
    Eve measured both photons in equal bases."""
    compared = {True: 0, False: 0}
    mismatched = {True: 0, False: 0}
    for rec in records:
        if not rec.coincident or not rec.same_basis:
            continue
        trace = rec.eve_trace
        if trace is None or len(trace.bases) != 2:
            raise ValueError(
                f"round {rec.round_id} lacks a double-intercept trace; "
                "detection_probability needs a double-intercept batch"
            )
        equal = trace.bases[0] is trace.bases[1]
        compared[equal] += 1
        mismatched[equal] += rec.alice_outcome is not rec.bob_outcome
    fields = {}
    for name, equal in (("same_bases", True), ("diff_bases", False)):
        fields[f"{name}_compared"] = compared[equal]
        fields[f"{name}_mismatches"] = mismatched[equal]
        fields[f"{name}_rate"], fields[f"{name}_se"] = rate(mismatched[equal], compared[equal])
    return DetectionStats(**fields)
