"""Tests for the 4x16-dimensional state algebra and Bell-basis measurements."""

import itertools
import math

import numpy as np
import pytest

from hyperqkd import (
    ATOL,
    BasisType,
    BellLabel,
    NotNormalizedError,
    Photon,
    RandomSource,
    basis_labels,
    basis_of,
    bell_vector,
    build_shared_state,
    expand_in_basis,
    fidelity,
    measure_party,
    measure_single,
)
from hyperqkd import hilbert

import oracle

S2 = 1.0 / math.sqrt(2.0)

ALL_LABELS = list(BellLabel)
TYPE_I = list(basis_labels(BasisType.TYPE_I))
TYPE_II = list(basis_labels(BasisType.TYPE_II))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestSharedState:
    def test_nonzero_amplitudes(self):
        s = build_shared_state()
        # (H,a;V,b) and (V,b;H,a) -> +1/2; (H,b;V,a) and (V,a;H,b) -> -1/2
        assert s[4 * 0 + 3] == 0.5
        assert s[4 * 3 + 0] == 0.5
        assert s[4 * 1 + 2] == -0.5
        assert s[4 * 2 + 1] == -0.5

    def test_other_amplitudes_zero(self):
        s = build_shared_state()
        nonzero = {3, 6, 9, 12}
        for i in range(16):
            if i not in nonzero:
                assert s[i] == 0.0
        # no parallel-polarization component
        assert s[4 * 0 + 1] == 0.0  # (H,a ; H,b)

    def test_normalized(self):
        s = build_shared_state()
        assert abs(np.vdot(s, s).real - 1.0) <= ATOL

    def test_matches_oracle(self):
        np.testing.assert_allclose(build_shared_state().real, oracle.SHARED, atol=0)

    def test_sign_flip_under_polarization_swap(self):
        # swapping H<->V on both photons negates the state (singlet factor)
        s = build_shared_state()
        sigma = [2, 3, 0, 1]
        swapped = np.array(
            [s[4 * sigma[i] + sigma[j]] for i in range(4) for j in range(4)]
        )
        np.testing.assert_allclose(swapped, -s, atol=ATOL)

    def test_sign_flip_under_path_swap(self):
        # swapping a<->b on both photons negates the state (singlet factor)
        s = build_shared_state()
        sigma = [1, 0, 3, 2]
        swapped = np.array(
            [s[4 * sigma[i] + sigma[j]] for i in range(4) for j in range(4)]
        )
        np.testing.assert_allclose(swapped, -s, atol=ATOL)

    def test_read_only(self):
        s = build_shared_state()
        with pytest.raises(ValueError):
            s[0] = 1.0


class TestBellVectors:
    def test_phi_plus_components(self):
        np.testing.assert_allclose(
            bell_vector(BellLabel.PHI_PLUS).real, [S2, 0, 0, S2], atol=0
        )

    def test_chi_minus_components(self):
        np.testing.assert_allclose(
            bell_vector(BellLabel.CHI_MINUS).real, [0.5, 0.5, -0.5, 0.5], atol=0
        )

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_unit_norm(self, label):
        v = bell_vector(label)
        assert abs(np.vdot(v, v).real - 1.0) <= ATOL

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_matches_oracle(self, label):
        np.testing.assert_allclose(
            bell_vector(label).real, oracle.VEC[label.value], atol=ATOL
        )

    @pytest.mark.parametrize("basis", list(BasisType))
    def test_orthonormal_within_basis(self, basis):
        mat = np.stack([bell_vector(lab) for lab in basis_labels(basis)])
        gram = mat @ mat.conj().T
        np.testing.assert_allclose(gram, np.eye(4), atol=ATOL)

    def test_basis_of(self):
        for label in TYPE_I:
            assert basis_of(label) is BasisType.TYPE_I
            assert label.basis is BasisType.TYPE_I
        for label in TYPE_II:
            assert basis_of(label) is BasisType.TYPE_II

    def test_codes_follow_declaration_order(self):
        # The oracle lists each basis's labels in sampling order.
        assert [b.value for b in hilbert.BASES] == list(oracle.BASES)
        assert [lab.value for lab in hilbert.LABELS] == [*oracle.LABELS_I, *oracle.LABELS_II]
        for code, label in enumerate(hilbert.LABELS):
            assert basis_of(label) is hilbert.BASES[code // 4]
            assert basis_labels(basis_of(label))[code % 4] is label

    @pytest.mark.parametrize("basis", list(BasisType))
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_overlap_quarters_match_oracle(self, label, basis):
        quarters = hilbert.overlap_quarters(label, basis)
        probs = [oracle.prob_single(oracle.VEC[label.value], lab)
                 for lab in oracle.BASIS_LABELS[basis.value]]
        assert all(type(q) is int for q in quarters)
        assert max(abs(q / 4 - p) for q, p in zip(quarters, probs)) <= ATOL
        expected = [0, 0, 0, 4] if basis is label.basis else [0, 0, 2, 2]
        assert sorted(quarters) == expected

    def test_eight_labels_two_bases(self):
        assert len(ALL_LABELS) == 8
        assert len(list(BasisType)) == 2
        assert BasisType.TYPE_I.other is BasisType.TYPE_II
        assert BasisType.TYPE_II.other is BasisType.TYPE_I


class TestBasisConversion:
    """The cross-basis relations between the two Bell bases."""

    # Each type-I vector equals (1/sqrt2)(chi_or_omega +- partner); the signed
    # coefficient table below is what expand_in_basis must reproduce.
    CONVERSION = {
        BellLabel.PHI_PLUS: {BellLabel.CHI_MINUS: S2, BellLabel.OMEGA_PLUS: S2},
        BellLabel.PHI_MINUS: {BellLabel.CHI_PLUS: S2, BellLabel.OMEGA_MINUS: -S2},
        BellLabel.PSI_PLUS: {BellLabel.CHI_PLUS: S2, BellLabel.OMEGA_MINUS: S2},
        BellLabel.PSI_MINUS: {BellLabel.CHI_MINUS: S2, BellLabel.OMEGA_PLUS: -S2},
    }

    @pytest.mark.parametrize("label", TYPE_I)
    def test_type_one_in_type_two(self, label):
        expected = self.CONVERSION[label]
        for partner, coeff in expand_in_basis(bell_vector(label), BasisType.TYPE_II):
            assert abs(coeff - expected.get(partner, 0.0)) <= ATOL

    @pytest.mark.parametrize("label", TYPE_I)
    def test_magnitude_pattern(self, label):
        mags = sorted(
            abs(c) for _, c in expand_in_basis(bell_vector(label), BasisType.TYPE_II)
        )
        np.testing.assert_allclose(mags, [0.0, 0.0, S2, S2], atol=ATOL)

    def test_identity_expansion(self):
        coeffs = dict(expand_in_basis(bell_vector(BellLabel.CHI_PLUS), BasisType.TYPE_II))
        assert abs(coeffs[BellLabel.CHI_PLUS] - 1.0) <= ATOL
        for label in (BellLabel.CHI_MINUS, BellLabel.OMEGA_PLUS, BellLabel.OMEGA_MINUS):
            assert abs(coeffs[label]) <= ATOL

    def test_psi_minus_signs(self):
        coeffs = dict(expand_in_basis(bell_vector(BellLabel.PSI_MINUS), BasisType.TYPE_II))
        assert abs(coeffs[BellLabel.CHI_MINUS] - S2) <= ATOL
        assert abs(coeffs[BellLabel.OMEGA_PLUS] + S2) <= ATOL

    def test_completeness_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = random_state(rng, 4)
            for basis in BasisType:
                total = sum(abs(c) ** 2 for _, c in expand_in_basis(state, basis))
                assert abs(total - 1.0) <= ATOL

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            expand_in_basis(np.array([1.0, 1.0, 0.0, 0.0]), BasisType.TYPE_I)


class TestSharedStateDecompositions:
    """The shared state rebuilt from correlated Bell pairs in either basis."""

    def test_same_basis_type_one(self):
        signs = {
            BellLabel.PHI_PLUS: 0.5,
            BellLabel.PHI_MINUS: -0.5,
            BellLabel.PSI_PLUS: -0.5,
            BellLabel.PSI_MINUS: 0.5,
        }
        total = sum(
            c * np.kron(bell_vector(lab), bell_vector(lab)) for lab, c in signs.items()
        )
        np.testing.assert_allclose(total, build_shared_state(), atol=ATOL)

    def test_same_basis_type_two(self):
        signs = {
            BellLabel.CHI_PLUS: -0.5,
            BellLabel.CHI_MINUS: 0.5,
            BellLabel.OMEGA_PLUS: 0.5,
            BellLabel.OMEGA_MINUS: -0.5,
        }
        total = sum(
            c * np.kron(bell_vector(lab), bell_vector(lab)) for lab, c in signs.items()
        )
        np.testing.assert_allclose(total, build_shared_state(), atol=ATOL)

    def test_cross_basis_eight_terms(self):
        coeff = 1.0 / (2.0 * math.sqrt(2.0))
        terms = [
            (BellLabel.PHI_PLUS, BellLabel.OMEGA_PLUS, 1),
            (BellLabel.PHI_PLUS, BellLabel.CHI_MINUS, 1),
            (BellLabel.PHI_MINUS, BellLabel.OMEGA_MINUS, 1),
            (BellLabel.PHI_MINUS, BellLabel.CHI_PLUS, -1),
            (BellLabel.PSI_PLUS, BellLabel.CHI_PLUS, -1),
            (BellLabel.PSI_PLUS, BellLabel.OMEGA_MINUS, -1),
            (BellLabel.PSI_MINUS, BellLabel.CHI_MINUS, 1),
            (BellLabel.PSI_MINUS, BellLabel.OMEGA_PLUS, -1),
        ]
        total = sum(
            s * coeff * np.kron(bell_vector(a), bell_vector(b)) for a, b, s in terms
        )
        np.testing.assert_allclose(total, build_shared_state(), atol=ATOL)
        # mirrored orientation: photon 1 carries the second-basis label
        mirrored = sum(
            s * coeff * np.kron(bell_vector(b), bell_vector(a)) for a, b, s in terms
        )
        np.testing.assert_allclose(mirrored, build_shared_state(), atol=ATOL)


class TestMeasureParty:
    def test_born_probabilities_on_shared_state(self):
        rng = RandomSource(11)
        counts = {lab: 0 for lab in TYPE_I}
        n = 100_000
        for _ in range(n):
            res = measure_party(build_shared_state(), Photon.ONE, BasisType.TYPE_I, rng)
            counts[res.label] += 1
            assert abs(res.probability - 0.25) <= ATOL
        se = math.sqrt(0.25 * 0.75 / n)
        for lab in TYPE_I:
            assert abs(counts[lab] / n - 0.25) <= 3 * se

    @pytest.mark.parametrize("basis", list(BasisType))
    @pytest.mark.parametrize("photon", list(Photon))
    def test_partner_collapses_to_same_label(self, basis, photon):
        rng = RandomSource(5)
        for _ in range(64):
            res = measure_party(build_shared_state(), photon, basis, rng)
            m = res.post_state.reshape(4, 4)
            # project out the measured side to recover the partner factor
            partner = (
                bell_vector(res.label).conj() @ m
                if photon is Photon.ONE
                else m @ bell_vector(res.label).conj()
            )
            partner = partner / np.linalg.norm(partner)
            assert fidelity(partner, bell_vector(res.label)) >= 1.0 - ATOL

    def test_eigenstate_is_deterministic(self):
        product = np.kron(
            bell_vector(BellLabel.PHI_PLUS), bell_vector(BellLabel.CHI_PLUS)
        )
        rng = RandomSource(1)
        for _ in range(32):
            res = measure_party(product, Photon.ONE, BasisType.TYPE_I, rng)
            assert res.label is BellLabel.PHI_PLUS
            assert abs(res.probability - 1.0) <= ATOL

    def test_collapsed_partner_measured_in_other_basis(self):
        # photon 1 collapsed to Phi+; photon 2 then lands on omega+/chi- only
        rng = RandomSource(23)
        counts = {lab: 0 for lab in TYPE_II}
        n = 4000
        for _ in range(n):
            first = measure_party(build_shared_state(), Photon.ONE, BasisType.TYPE_I, rng)
            if first.label is not BellLabel.PHI_PLUS:
                continue
            second = measure_party(first.post_state, Photon.TWO, BasisType.TYPE_II, rng)
            counts[second.label] += 1
        assert counts[BellLabel.OMEGA_MINUS] == 0
        assert counts[BellLabel.CHI_PLUS] == 0
        seen = counts[BellLabel.OMEGA_PLUS] + counts[BellLabel.CHI_MINUS]
        assert seen > 0
        assert abs(counts[BellLabel.OMEGA_PLUS] / seen - 0.5) <= 3 * math.sqrt(
            0.25 / seen
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="only the closed set's 65 states are measured"):
            measure_party(
                np.ones(16, dtype=complex), Photon.ONE, BasisType.TYPE_I, RandomSource(0)
            )

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            measure_party(
                np.array([1.0, 0, 0, 0]), Photon.ONE, BasisType.TYPE_I, RandomSource(0)
            )


def _party_probs(state, photon, basis):
    """Born probabilities via direct projection, for cross-checks."""
    m = np.asarray(state).reshape(4, 4)
    out = []
    for lab in basis_labels(basis):
        v = bell_vector(lab).conj()
        cond = v @ m if photon is Photon.ONE else m @ v
        out.append(float(np.vdot(cond, cond).real))
    return out


def _post_state(state, photon, label):
    """The state that projecting ``photon`` of ``state`` onto ``label``
    leaves: the label's Bell vector beside the oracle's normalized
    conditional state of the partner photon."""
    partner = oracle.conditional_partner(np.asarray(state), label.value, photon.value)
    pair = (oracle.VEC[label.value], partner)
    return np.kron(*(pair if photon is Photon.ONE else pair[::-1]))


class TestMeasureSingle:
    def test_omega_plus_in_type_one(self):
        rng = RandomSource(9)
        counts = {lab: 0 for lab in TYPE_I}
        n = 20_000
        for _ in range(n):
            res = measure_single(bell_vector(BellLabel.OMEGA_PLUS), BasisType.TYPE_I, rng)
            counts[res.label] += 1
            assert abs(res.probability - 0.5) <= ATOL
        assert counts[BellLabel.PHI_MINUS] == 0
        assert counts[BellLabel.PSI_PLUS] == 0
        se = math.sqrt(0.25 / n)
        assert abs(counts[BellLabel.PHI_PLUS] / n - 0.5) <= 3 * se

    def test_chi_plus_in_type_one(self):
        rng = RandomSource(10)
        seen = set()
        for _ in range(200):
            res = measure_single(bell_vector(BellLabel.CHI_PLUS), BasisType.TYPE_I, rng)
            seen.add(res.label)
        assert seen == {BellLabel.PHI_MINUS, BellLabel.PSI_PLUS}

    def test_own_basis_eigenstate(self):
        rng = RandomSource(2)
        res = measure_single(bell_vector(BellLabel.PHI_MINUS), BasisType.TYPE_I, rng)
        assert res.label is BellLabel.PHI_MINUS
        assert abs(res.probability - 1.0) <= ATOL
        np.testing.assert_array_equal(res.post_state, bell_vector(BellLabel.PHI_MINUS))

    def test_bell_vector_is_measured_with_exact_quarters(self):
        # The draw's top two bits q pick the first label whose running
        # quarter count exceeds q, as measure_party does on the closed set.
        # Its zeros given as -0.0, a Bell vector is still equal in value.
        for label in ALL_LABELS:
            signed = bell_vector(label).copy()
            signed[signed == 0] = -0.0
            for basis in BasisType:
                quarters = hilbert.overlap_quarters(label, basis)
                running = np.cumsum(quarters)
                for q, vector in itertools.product(range(4), (bell_vector(label), signed)):
                    res = measure_single(vector, basis, Words(q << 62 | 12345))
                    idx = int(np.searchsorted(running, q, side="right"))
                    assert res.label is basis_labels(basis)[idx]
                    assert res.probability == quarters[idx] / 4
                    assert res.post_state is bell_vector(res.label)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="only the eight Bell vectors are measured"):
            measure_single(np.array([0.9, 0, 0, 0]), BasisType.TYPE_I, RandomSource(0))

    def test_rejects_other_states(self):
        # A random state, one a rounding error away from a Bell vector, and
        # a product state of the wrong length are not measured; no bit of
        # the stream is read.
        near = bell_vector(BellLabel.CHI_PLUS).copy()
        near[1] += 1e-13
        near /= np.linalg.norm(near)
        for state in (random_state(np.random.default_rng(29), 4), near,
                      hilbert._STATES[3]):
            words = Words(0)
            with pytest.raises(ValueError, match="only the eight Bell vectors are measured"):
                measure_single(state, BasisType.TYPE_I, words)
            assert words.words == [0]


class TestFidelity:
    def test_self_fidelity(self):
        np_rng = np.random.default_rng(5)
        for dim in (4, 16):
            state = random_state(np_rng, dim)
            assert abs(fidelity(state, state) - 1.0) <= ATOL

    def test_orthogonal_states(self):
        assert fidelity(bell_vector(BellLabel.PHI_PLUS), bell_vector(BellLabel.PSI_MINUS)) == 0.0

    def test_cross_basis_half(self):
        f = fidelity(bell_vector(BellLabel.PHI_PLUS), bell_vector(BellLabel.CHI_MINUS))
        assert abs(f - 0.5) <= ATOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(bell_vector(BellLabel.PHI_PLUS), build_shared_state())

    def test_bounded_on_random_states(self):
        np_rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_state(np_rng, 4)
            b = random_state(np_rng, 4)
            f = fidelity(a, b)
            assert -ATOL <= f <= 1.0 + ATOL
            assert abs(f - fidelity(b, a)) <= ATOL


class TestSamplingContract:
    def test_one_uniform_draw_per_measurement(self):
        rng_a = RandomSource(77)
        rng_b = RandomSource(77)
        for _ in range(50):
            measure_party(build_shared_state(), Photon.ONE, BasisType.TYPE_I, rng_a)
            rng_b.uniform()
        # streams advanced identically -> same next draw
        assert rng_a.uniform() == rng_b.uniform()

    def test_seeded_replay_is_identical(self):
        seq1 = [
            measure_party(build_shared_state(), Photon.ONE, BasisType.TYPE_II, RandomSource.for_round(5, i)).label
            for i in range(200)
        ]
        seq2 = [
            measure_party(build_shared_state(), Photon.ONE, BasisType.TYPE_II, RandomSource.for_round(5, i)).label
            for i in range(200)
        ]
        assert seq1 == seq2

    def test_zero_probability_labels_never_sampled(self):
        rng = RandomSource(13)
        for _ in range(5000):
            res = measure_single(bell_vector(BellLabel.OMEGA_PLUS), BasisType.TYPE_I, rng)
            assert res.label in (BellLabel.PHI_PLUS, BellLabel.PSI_MINUS)


class Words(RandomSource):
    """A stream whose raw draws are the given words, in order."""

    def __init__(self, *words):
        self.words = list(words)

    def next_u64(self):
        return self.words.pop(0)


CLOSED_IDS = range(hilbert.SHARED_ID + 1)
BASIS_CODES = {basis: code for code, basis in enumerate(BasisType)}


def _row(sid, photon, basis):
    return 4 * sid + 2 * (photon.value - 1) + BASIS_CODES[basis]


class TestClosedTables:
    """The fixed tables of the protocol's closed state set."""

    def test_fixed_ids(self):
        codes = [lab for basis in BasisType for lab in basis_labels(basis)]
        for c1, a in enumerate(codes):
            for c2, b in enumerate(codes):
                np.testing.assert_array_equal(
                    hilbert._STATES[8 * c1 + c2], np.kron(bell_vector(a), bell_vector(b))
                )
        assert hilbert._STATES[hilbert.SHARED_ID] is build_shared_state()

    def test_kron_products_are_read_off_the_tables(self):
        # np.kron of two Bell vectors holds -0.0 where the closed set holds
        # 0.0; the products are equal in value, so they take the exact path.
        codes = [lab for basis in BasisType for lab in basis_labels(basis)]
        for (c1, a), (c2, b) in itertools.product(enumerate(codes), repeat=2):
            state = np.kron(bell_vector(a), bell_vector(b))
            for photon, basis, q in itertools.product(Photon, BasisType, range(4)):
                res = measure_party(state, photon, basis, Words(q << 62))
                row = _row(8 * c1 + c2, photon, basis)
                idx = basis_labels(basis).index(res.label)
                assert res.probability == hilbert._QUARTERS[4 * row + idx] / 4
                assert any(res.post_state is known for known in hilbert._STATES)

    @pytest.mark.parametrize("sid", CLOSED_IDS)
    def test_rows_are_computed_probabilities_in_quarters(self, sid):
        # Every row, reached by a round or not, against Born probabilities
        # from this file's own projection and post-states from the oracle's
        # conditional states, neither of which reads the tables.
        state = hilbert._STATES[sid]
        for photon in Photon:
            for basis in BasisType:
                probs = _party_probs(state, photon, basis)
                row = _row(sid, photon, basis)
                quarters = hilbert._QUARTERS[4 * row:4 * row + 4].tolist()
                assert quarters == [round(4 * p) for p in probs]
                # The computed probabilities are the quarters up to rounding,
                # so a label of 0 quarters has exact probability 0.
                assert max(abs(4 * p - q) for p, q in zip(probs, quarters)) <= 1e-12
                slots = 4 * row + np.arange(4)
                labels = hilbert.OUTCOME_LABEL[slots]
                # Each label is picked by as many of the four top-two-bit
                # values as it has quarters (so never when it has none), in
                # label order, as inverse-CDF sampling picks them.
                assert np.bincount(labels, minlength=4).tolist() == quarters
                assert (np.diff(labels) >= 0).all()
                for lab, post in zip(labels.tolist(), hilbert.OUTCOME_POST[slots].tolist()):
                    assert post in CLOSED_IDS
                    want = _post_state(state, photon, basis_labels(basis)[lab])
                    assert fidelity(want, hilbert._STATES[post]) >= 1.0 - ATOL

    def test_certain_outcome_at_the_top_draw(self):
        # Eve measures photon 2 in type-I and gets Phi+; Alice measures photon
        # 1 in type-II and gets chi-. Bob's type-I outcome is then certainly
        # Phi+, even at the top draw: probabilities computed in floats would
        # leave about 5e-34 on Phi-, which sampling from them would pick for
        # every uniform at or above their sum, 1 - 2**-51.
        top = 2**64 - 1  # uniform 1 - 2**-53
        eve = measure_party(build_shared_state(), Photon.TWO, BasisType.TYPE_I, Words(0))
        alice = measure_party(eve.post_state, Photon.ONE, BasisType.TYPE_II, Words(0))
        assert (eve.label, alice.label) == (BellLabel.PHI_PLUS, BellLabel.CHI_MINUS)
        bob = measure_party(alice.post_state, Photon.TWO, BasisType.TYPE_I, Words(top))
        assert bob.label is BellLabel.PHI_PLUS
        assert bob.probability == 1.0
        # The batch engine reads the same tables, with the top draw's top
        # two bits.
        state = hilbert.SHARED_ID
        for photon, basis, bits, want in [
            (Photon.TWO, 0, 0, 0), (Photon.ONE, 1, 0, 1), (Photon.TWO, 0, top >> 62, 0)
        ]:
            slot = hilbert.outcome_slots(state, photon, basis, bits)
            assert hilbert.OUTCOME_LABEL[slot] == want
            state = hilbert.OUTCOME_POST[slot]

    @pytest.mark.parametrize("photon", list(Photon))
    @pytest.mark.parametrize("basis", list(BasisType))
    def test_batch_slots_equal_measure_party(self, photon, basis):
        words = np.random.default_rng(5).integers(0, 2**64, 2 * len(CLOSED_IDS),
                                                  dtype=np.uint64, endpoint=False)
        ids = np.tile(np.arange(len(CLOSED_IDS)), 2)
        code = np.full(len(ids), BASIS_CODES[basis], dtype=np.int8)
        slots = hilbert.outcome_slots(ids, photon, code, (words >> 62).astype(np.int64))
        for sid, word, lab, post in zip(ids.tolist(), words.tolist(),
                                        hilbert.OUTCOME_LABEL.take(slots).tolist(),
                                        hilbert.OUTCOME_POST.take(slots).tolist()):
            res = measure_party(hilbert._STATES[sid], photon, basis, Words(word))
            assert res.label is basis_labels(basis)[lab]
            assert res.post_state is hilbert._STATES[post]
            assert res.probability > 0.0

    def test_other_states_are_not_snapped(self):
        # A state a rounding error away from a closed-set one, a random
        # state and a closed-set one scaled off unit norm are not measured;
        # no bit of the stream is read.
        near = hilbert._STATES[9].copy()
        near[5] += 1e-13
        near /= np.linalg.norm(near)
        for state in (near, random_state(np.random.default_rng(3), 16),
                      2 * hilbert._STATES[9]):
            words = Words(0)
            with pytest.raises(ValueError, match="only the closed set's 65 states are measured"):
                measure_party(state, Photon.TWO, BasisType.TYPE_II, words)
            assert words.words == [0]
