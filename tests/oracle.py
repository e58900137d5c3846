"""Independent brute-force oracle for the protocol's exact statistics.

Everything here is computed from first principles with literal coefficient
tables and exhaustive enumeration over measurement outcomes weighted by
Born probabilities. Nothing is imported from the package under test; label
strings match the package enums' ``.value`` so tests can translate.
"""

import itertools
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

LABELS_I = ("Phi+", "Phi-", "Psi+", "Psi-")
LABELS_II = ("chi+", "chi-", "omega+", "omega-")
BASES = ("type-I", "type-II")
BASIS_LABELS = {"type-I": LABELS_I, "type-II": LABELS_II}

# Single-photon Bell vectors over components (H,a), (H,b), (V,a), (V,b).
VEC = {
    "Phi+": np.array([_S2, 0.0, 0.0, _S2]),
    "Phi-": np.array([_S2, 0.0, 0.0, -_S2]),
    "Psi+": np.array([0.0, _S2, _S2, 0.0]),
    "Psi-": np.array([0.0, _S2, -_S2, 0.0]),
    "chi+": np.array([0.5, 0.5, 0.5, -0.5]),
    "chi-": np.array([0.5, 0.5, -0.5, 0.5]),
    "omega+": np.array([0.5, -0.5, 0.5, 0.5]),
    "omega-": np.array([-0.5, 0.5, 0.5, 0.5]),
}

# Singlet (polarization) times singlet (path), joint index 4*i1 + i2.
SHARED = np.zeros(16)
SHARED[3] = 0.5
SHARED[6] = -0.5
SHARED[9] = -0.5
SHARED[12] = 0.5

# Two-bit codes for same-basis rounds, one-bit codes for different-basis
# rounds (the one-bit classes are invariant under basis conversion).
CODE2 = {
    "Phi+": (0, 0), "Phi-": (0, 1), "Psi+": (1, 0), "Psi-": (1, 1),
    "chi+": (0, 0), "chi-": (0, 1), "omega+": (1, 0), "omega-": (1, 1),
}
CODE1 = {
    "Phi+": 0, "Psi-": 0, "Phi-": 1, "Psi+": 1,
    "omega+": 0, "chi-": 0, "omega-": 1, "chi+": 1,
}

#: Keyrate of the three-bases entangled-qubit baseline, bits per pair.
EKERT_BITS_PER_PAIR = 2.0 / 9.0

_EPS = 1e-12


def prob_single(state4, label):
    amp = float(VEC[label] @ state4)
    return amp * amp


def support(label, basis):
    """Labels of ``basis`` that measuring the Bell state ``label`` can give."""
    return [lab for lab in BASIS_LABELS[basis] if prob_single(VEC[label], lab) > _EPS]


def guess_probability(label, basis, same, k=0):
    """Probability that the best guess of one key bit is right when the key
    owner measures the Bell state ``label`` in ``basis`` (``label`` None: a
    state nobody touched, so every outcome of the basis is equally likely).

    ``same`` selects the two-bit code and ``k`` its bit; otherwise the one-bit
    code is guessed.
    """
    labels = BASIS_LABELS[basis]
    post = {lab: 0.25 if label is None else prob_single(VEC[label], lab) for lab in labels}
    q1 = sum(p for lab, p in post.items() if (CODE2[lab][k] if same else CODE1[lab]) == 1)
    return max(q1, 1.0 - q1)


def joint_prob(state16, label1, label2):
    amp = float(np.kron(VEC[label1], VEC[label2]) @ state16)
    return amp * amp


def conditional_partner(state16, measured_label, photon):
    """Normalized partner state given a projective outcome on one photon."""
    m = state16.reshape(4, 4)
    v = VEC[measured_label] @ m if photon == 1 else m @ VEC[measured_label]
    return v / np.linalg.norm(v)


def no_attack_joint(basis_a, basis_b):
    """Exact joint outcome distribution {(a, b): prob} for one basis pair."""
    return {
        (a, b): joint_prob(SHARED, a, b)
        for a in BASIS_LABELS[basis_a]
        for b in BASIS_LABELS[basis_b]
    }


def allowed_cross_pairs():
    """The (type-I label, type-II label) pairs with nonzero probability."""
    return {
        (a, b)
        for (a, b), p in no_attack_joint("type-I", "type-II").items()
        if p > _EPS
    }


def _party_outcome_dist(state4, basis):
    return {lab: prob_single(state4, lab) for lab in BASIS_LABELS[basis]}


def enumerate_single_intercept(eve_bases=BASES):
    """All (weight, eve_basis, eve_outcome, A, a, B, b) under a single intercept.

    Eve measures photon 2 in a uniformly chosen basis from ``eve_bases`` and
    resends her eigenstate; both parties then choose bases uniformly.
    """
    rows = []
    w_eve = 1.0 / len(eve_bases)
    for eve_basis in eve_bases:
        for e in BASIS_LABELS[eve_basis]:
            m = SHARED.reshape(4, 4)
            unnorm = m @ VEC[e]
            p_e = float(unnorm @ unnorm)
            cond1 = unnorm / math.sqrt(p_e)
            for basis_a, basis_b in itertools.product(BASES, BASES):
                for a, p_a in _party_outcome_dist(cond1, basis_a).items():
                    if p_a < _EPS:
                        continue
                    for b, p_b in _party_outcome_dist(VEC[e], basis_b).items():
                        if p_b < _EPS:
                            continue
                        rows.append(
                            (w_eve * p_e * 0.25 * p_a * p_b,
                             eve_basis, e, basis_a, a, basis_b, b)
                        )
    return rows


def enumerate_double_intercept(eve_basis1, eve_basis2):
    """All (weight, e1, e2, A, a, B, b) when Eve measures both photons."""
    rows = []
    for e1 in BASIS_LABELS[eve_basis1]:
        m = SHARED.reshape(4, 4)
        unnorm = VEC[e1] @ m
        p1 = float(unnorm @ unnorm)
        cond2 = unnorm / math.sqrt(p1)
        for e2, p2 in _party_outcome_dist(cond2, eve_basis2).items():
            if p2 < _EPS:
                continue
            for basis_a, basis_b in itertools.product(BASES, BASES):
                for a, p_a in _party_outcome_dist(VEC[e1], basis_a).items():
                    if p_a < _EPS:
                        continue
                    for b, p_b in _party_outcome_dist(VEC[e2], basis_b).items():
                        if p_b < _EPS:
                            continue
                        rows.append(
                            (p1 * p2 * 0.25 * p_a * p_b, e1, e2, basis_a, a, basis_b, b)
                        )
    return rows


def _ratio(rows, select_num, select_den):
    num = sum(w for w, *rest in rows if select_den(*rest) and select_num(*rest))
    den = sum(w for w, *rest in rows if select_den(*rest))
    return num / den


def single_same_basis_mismatch(eve_bases=BASES):
    rows = enumerate_single_intercept(eve_bases)
    return _ratio(
        rows,
        lambda E, e, A, a, B, b: a != b,
        lambda E, e, A, a, B, b: A == B,
    )


def single_mismatch_by_eve_match():
    """Same-basis mismatch stratified by Eve's basis matching the parties'."""
    rows = enumerate_single_intercept()
    out = {}
    for match in (True, False):
        out[match] = _ratio(
            rows,
            lambda E, e, A, a, B, b: a != b,
            lambda E, e, A, a, B, b, m=match: A == B and (E == A) == m,
        )
    return out


def single_diff_basis_bit_mismatch():
    """Probability the two parties' one-bit codes disagree on a
    different-basis round under a single intercept (exact)."""
    rows = enumerate_single_intercept()
    return _ratio(
        rows,
        lambda E, e, A, a, B, b: CODE1[a] != CODE1[b],
        lambda E, e, A, a, B, b: A != B,
    )


def single_eve_information(eve_bases=BASES, bob_basis_forced_to_eve=False):
    """Exact certainty-criterion information about the receiver's key.

    A key bit counts as Eve's when the state she resent to Bob has a single
    possible outcome in Bob's announced basis. With ``bob_basis_forced_to_eve``
    Bob's basis always equals Eve's (the omniscient upper-bound strategy).
    """
    known = total = 0.0
    w_eve = 1.0 / len(eve_bases)
    for eve_basis in eve_bases:
        for e in BASIS_LABELS[eve_basis]:
            m = SHARED.reshape(4, 4)
            unnorm = m @ VEC[e]
            p_e = float(unnorm @ unnorm)
            basis_bs = (eve_basis,) if bob_basis_forced_to_eve else BASES
            for basis_a, basis_b in itertools.product(BASES, basis_bs):
                w_bases = (1.0 / len(BASES)) * (1.0 / len(basis_bs))
                w = w_eve * p_e * w_bases
                nbits = 2 if basis_a == basis_b else 1
                total += w * nbits
                if len(support(e, basis_b)) == 1:
                    known += w * nbits
    return known / total


def single_eve_guess_accuracy():
    """Exact expected accuracy of Eve's posterior-optimal per-bit guesses."""
    acc = total = 0.0
    for eve_basis in BASES:
        for e in BASIS_LABELS[eve_basis]:
            m = SHARED.reshape(4, 4)
            unnorm = m @ VEC[e]
            p_e = float(unnorm @ unnorm)
            for basis_a, basis_b in itertools.product(BASES, BASES):
                w = 0.5 * p_e * 0.25
                post = _party_outcome_dist(VEC[e], basis_b)
                norm = sum(post.values())
                if basis_a == basis_b:
                    for k in (0, 1):
                        q1 = sum(p for lab, p in post.items() if CODE2[lab][k] == 1)
                        acc += w * max(q1 / norm, 1.0 - q1 / norm)
                    total += 2 * w
                else:
                    q1 = sum(p for lab, p in post.items() if CODE1[lab] == 1)
                    acc += w * max(q1 / norm, 1.0 - q1 / norm)
                    total += w
    return acc / total


def single_key_bit_error(eve_bases=BASES):
    """Exact disagreement rate between the parties' full key strings."""
    rows = enumerate_single_intercept(eve_bases)
    err = total = 0.0
    for w, E, e, A, a, B, b in rows:
        if A == B:
            err += w * sum(x != y for x, y in zip(CODE2[a], CODE2[b]))
            total += 2 * w
        else:
            err += w * (CODE1[a] != CODE1[b])
            total += w
    return err / total


def double_same_basis_mismatch(equal_bases):
    """Exact same-basis A/B mismatch when Eve measured both photons."""
    pairs = (
        [("type-I", "type-I"), ("type-II", "type-II")]
        if equal_bases
        else [("type-I", "type-II"), ("type-II", "type-I")]
    )
    rates = []
    for b1, b2 in pairs:
        rows = enumerate_double_intercept(b1, b2)
        rates.append(
            _ratio(
                rows,
                lambda e1, e2, A, a, B, b: a != b,
                lambda e1, e2, A, a, B, b: A == B,
            )
        )
    assert abs(rates[0] - rates[1]) < _EPS
    return rates[0]


def double_key_bit_error(equal_bases):
    pairs = (
        [("type-I", "type-I"), ("type-II", "type-II")]
        if equal_bases
        else [("type-I", "type-II"), ("type-II", "type-I")]
    )
    values = []
    for b1, b2 in pairs:
        err = total = 0.0
        for w, e1, e2, A, a, B, b in enumerate_double_intercept(b1, b2):
            if A == B:
                err += w * sum(x != y for x, y in zip(CODE2[a], CODE2[b]))
                total += 2 * w
            else:
                err += w * (CODE1[a] != CODE1[b])
                total += w
        values.append(err / total)
    assert abs(values[0] - values[1]) < _EPS
    return values[0]


def single_same_basis_bit_error():
    """Exact per-bit key error restricted to same-basis rounds (single intercept).

    The two candidate outcomes Eve's disturbance mixes always differ in both
    code bits, so this equals the outcome mismatch rate.
    """
    rows = enumerate_single_intercept()
    err = total = 0.0
    for w, E, e, A, a, B, b in rows:
        if A == B:
            err += w * sum(x != y for x, y in zip(CODE2[a], CODE2[b]))
            total += 2 * w
    return err / total


def double_same_basis_bit_error(equal_bases):
    """Exact per-bit key error restricted to same-basis rounds (double intercept)."""
    pairs = (
        [("type-I", "type-I"), ("type-II", "type-II")]
        if equal_bases
        else [("type-I", "type-II"), ("type-II", "type-I")]
    )
    values = []
    for b1, b2 in pairs:
        err = total = 0.0
        for w, e1, e2, A, a, B, b in enumerate_double_intercept(b1, b2):
            if A == B:
                err += w * sum(x != y for x, y in zip(CODE2[a], CODE2[b]))
                total += 2 * w
        values.append(err / total)
    assert abs(values[0] - values[1]) < _EPS
    return values[0]


def single_guess_accuracy_by_group():
    """Exact per-bit guess accuracy split by key group: {'same': ..., 'diff': ...}."""
    acc = {"same": 0.0, "diff": 0.0}
    total = {"same": 0.0, "diff": 0.0}
    for eve_basis in BASES:
        for e in BASIS_LABELS[eve_basis]:
            m = SHARED.reshape(4, 4)
            unnorm = m @ VEC[e]
            p_e = float(unnorm @ unnorm)
            for basis_a, basis_b in itertools.product(BASES, BASES):
                w = 0.5 * p_e * 0.25
                post = _party_outcome_dist(VEC[e], basis_b)
                norm = sum(post.values())
                if basis_a == basis_b:
                    for k in (0, 1):
                        q1 = sum(p for lab, p in post.items() if CODE2[lab][k] == 1)
                        acc["same"] += w * max(q1 / norm, 1.0 - q1 / norm)
                    total["same"] += 2 * w
                else:
                    q1 = sum(p for lab, p in post.items() if CODE1[lab] == 1)
                    acc["diff"] += w * max(q1 / norm, 1.0 - q1 / norm)
                    total["diff"] += w
    return {group: acc[group] / total[group] for group in acc}


def double_eve_pair_distribution(eve_basis1, eve_basis2):
    """Exact distribution of Eve's own outcome pairs (e1, e2)."""
    dist = {}
    for w, e1, e2, A, a, B, b in enumerate_double_intercept(eve_basis1, eve_basis2):
        dist[(e1, e2)] = dist.get((e1, e2), 0.0) + w
    return dist


def bits_per_coincidence_exact():
    """Expected key bits per coincident round with fair basis coins."""
    return 0.5 * 2 + 0.5 * 1
