"""Exact state-vector algebra for two photons carrying polarization and path qubits.

Each photon lives in a 4-dimensional Hilbert space spanned by
(polarization, path) products, ordered as

    index = 2*pol + path,  pol: H=0, V=1,  path: a=0, b=1
    -> (H,a), (H,b), (V,a), (V,b)

Joint two-photon states use index ``4*i1 + i2`` (photon 1 major). States
are numpy ``complex128`` vectors of length 4 (one photon) or 16 (both);
arrays returned by this module are marked read-only and must be treated
as immutable values.

Two complementary Bell-state bases of the single-photon space are
supported. In the component order above all eight Bell vectors are real:

    type-I :  Phi+- = (Ha +- Vb)/sqrt(2),   Psi+- = (Hb +- Va)/sqrt(2)
    type-II:  chi+- = [H(a+b) +- V(a-b)]/2, omega+- = [V(a+b) +- H(a-b)]/2

Measurement sampling walks the cumulative distribution over the four
labels of a basis in their fixed declaration order and consumes exactly
one uniform draw, which makes every run bit-reproducible per seed.
:class:`MeasurementTables` samples the same measurements for whole arrays
of rounds at once, from tables built on first use and giving the same
outcome as :func:`measure_party` for every draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotNormalizedError
from .rng import RandomSource

#: Tolerance for exact-algebra assertions; every amplitude in this module is a
#: dyadic rational times a power of sqrt(2), so double precision is exact to
#: rounding and 1e-12 leaves two decades of headroom.
ATOL = 1e-12

# Inputs are accepted as normalized if their squared norm is within this of 1.
_NORM_TOL = 1e-9

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class BasisType(Enum):
    """The two complementary Bell-state bases."""

    TYPE_I = "type-I"
    TYPE_II = "type-II"

    @property
    def other(self) -> "BasisType":
        return BasisType.TYPE_II if self is BasisType.TYPE_I else BasisType.TYPE_I


class BellLabel(Enum):
    """The eight Bell states, four per basis."""

    PHI_PLUS = "Phi+"
    PHI_MINUS = "Phi-"
    PSI_PLUS = "Psi+"
    PSI_MINUS = "Psi-"
    CHI_PLUS = "chi+"
    CHI_MINUS = "chi-"
    OMEGA_PLUS = "omega+"
    OMEGA_MINUS = "omega-"

    @property
    def basis(self) -> BasisType:
        return _LABEL_BASIS[self]


class Photon(Enum):
    """Which photon of the shared pair a joint-state operation targets."""

    ONE = 1
    TWO = 2


_TYPE_I_LABELS = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)
_TYPE_II_LABELS = (
    BellLabel.CHI_PLUS,
    BellLabel.CHI_MINUS,
    BellLabel.OMEGA_PLUS,
    BellLabel.OMEGA_MINUS,
)
_LABEL_BASIS = {label: BasisType.TYPE_I for label in _TYPE_I_LABELS}
_LABEL_BASIS.update({label: BasisType.TYPE_II for label in _TYPE_II_LABELS})

_BASIS_LABELS = {
    BasisType.TYPE_I: _TYPE_I_LABELS,
    BasisType.TYPE_II: _TYPE_II_LABELS,
}


def _frozen(vector) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


_BELL_VECTORS = {
    BellLabel.PHI_PLUS: _frozen([_SQRT1_2, 0.0, 0.0, _SQRT1_2]),
    BellLabel.PHI_MINUS: _frozen([_SQRT1_2, 0.0, 0.0, -_SQRT1_2]),
    BellLabel.PSI_PLUS: _frozen([0.0, _SQRT1_2, _SQRT1_2, 0.0]),
    BellLabel.PSI_MINUS: _frozen([0.0, _SQRT1_2, -_SQRT1_2, 0.0]),
    BellLabel.CHI_PLUS: _frozen([0.5, 0.5, 0.5, -0.5]),
    BellLabel.CHI_MINUS: _frozen([0.5, 0.5, -0.5, 0.5]),
    BellLabel.OMEGA_PLUS: _frozen([0.5, -0.5, 0.5, 0.5]),
    BellLabel.OMEGA_MINUS: _frozen([-0.5, 0.5, 0.5, 0.5]),
}

# Row l = the l-th Bell vector of the basis, in fixed label order. The Bell
# vectors are real, so <bell|psi> needs no conjugation of the basis matrix.
_BASIS_MATRIX = {
    basis: _frozen(np.stack([_BELL_VECTORS[lab] for lab in labels]))
    for basis, labels in _BASIS_LABELS.items()
}

# Shared pair state: (1/2)(H1 V2 - V1 H2) x (a1 b2 - b1 a2), i.e. a
# polarization singlet times a path singlet.
_SHARED = np.zeros(16, dtype=np.complex128)
_SHARED[4 * 0 + 3] = 0.5   # (H,a ; V,b)
_SHARED[4 * 1 + 2] = -0.5  # (H,b ; V,a)
_SHARED[4 * 2 + 1] = -0.5  # (V,a ; H,b)
_SHARED[4 * 3 + 0] = 0.5   # (V,b ; H,a)
_SHARED.flags.writeable = False


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Outcome of a projective Bell-basis measurement.

    ``probability`` is the Born probability of ``label`` given the input
    state; ``post_state`` is the normalized collapsed state (length 16 for
    a joint-state measurement, length 4 for a single-photon one).
    """

    label: BellLabel
    probability: float
    post_state: np.ndarray = field(repr=False)


def basis_labels(basis: BasisType) -> tuple[BellLabel, ...]:
    """The four labels of a basis in their fixed sampling order."""
    return _BASIS_LABELS[basis]


def basis_of(label: BellLabel) -> BasisType:
    """Which of the two complementary bases a Bell label belongs to."""
    return _LABEL_BASIS[label]


def build_shared_state() -> np.ndarray:
    """The hyperentangled pair state shared by the two parties.

    Equal to the polarization singlet tensored with the path singlet,
    normalized; only the four (H,a;V,b)-type components are nonzero, with
    amplitudes +-1/2. The returned array is read-only and shared between
    calls.
    """
    return _SHARED


def bell_vector(label: BellLabel) -> np.ndarray:
    """The single-photon Bell state named by ``label`` (read-only, unit norm)."""
    return _BELL_VECTORS[label]


def _squared_norm(state: np.ndarray) -> float:
    return float(np.vdot(state, state).real)


def _require_normalized(state: np.ndarray, dim: int, what: str) -> np.ndarray:
    if state.shape != (dim,):
        raise ValueError(f"{what} must be a length-{dim} vector, got shape {state.shape}")
    n2 = _squared_norm(state)
    # `not <=` also rejects NaN norms.
    if not abs(n2 - 1.0) <= _NORM_TOL:
        raise NotNormalizedError(f"{what} must be normalized, got squared norm {n2!r}")
    return state


def _sample_index(probs: list[float], u: float) -> int:
    """Inverse-CDF sample over fixed label order from one uniform draw.

    Labels with exactly zero probability are skipped, so they can never be
    selected; the final fallback absorbs the sub-1 cumulative sum left by
    floating-point rounding.
    """
    acc = 0.0
    last = -1
    for i in range(4):
        p = probs[i]
        if p <= 0.0:
            continue
        acc += p
        last = i
        if u < acc:
            return i
    return last


# Measurement is a pure function of (state, target, basis) apart from the one
# uniform draw, and protocol runs revisit a small closed set of immutable
# states (the shared state and Bell-product collapses), so the deterministic
# part -- Born probabilities and the collapsed state per label -- is cached by
# state content for the one-round functions below; MeasurementTables holds
# the same data as arrays for batches. Cached inputs skip re-validation; the
# cap only bounds memory for callers measuring many distinct ad-hoc states.
_MEASURE_CACHE: dict = {}
_MEASURE_CACHE_MAX = 4096


def _joint_table(
    state: np.ndarray, photon: Photon, basis: BasisType
) -> tuple[list[float], tuple]:
    key = (state.tobytes(), photon, basis)
    entry = _MEASURE_CACHE.get(key)
    if entry is not None:
        return entry
    state = _require_normalized(state, 16, "joint state")
    m = state.reshape(4, 4)
    # Row l of `cond` is the partner photon's unnormalized conditional state
    # given outcome l on the measured photon.
    cond = _BASIS_MATRIX[basis] @ (m if photon is Photon.ONE else m.T)
    re, im = cond.real, cond.imag
    probs = (re * re + im * im).sum(axis=1).tolist()
    posts = []
    for idx, label in enumerate(_BASIS_LABELS[basis]):
        if probs[idx] <= 0.0:
            posts.append(None)
            continue
        partner = cond[idx] / math.sqrt(probs[idx])
        bell = _BELL_VECTORS[label]
        if photon is Photon.ONE:
            post = np.multiply.outer(bell, partner).reshape(16)
        else:
            post = np.multiply.outer(partner, bell).reshape(16)
        post.flags.writeable = False
        posts.append(post)
    entry = (probs, tuple(posts))
    if len(_MEASURE_CACHE) < _MEASURE_CACHE_MAX:
        _MEASURE_CACHE[key] = entry
    return entry


def _single_table(state: np.ndarray, basis: BasisType) -> tuple[list[float], tuple]:
    key = (state.tobytes(), None, basis)
    entry = _MEASURE_CACHE.get(key)
    if entry is not None:
        return entry
    state = _require_normalized(state, 4, "state")
    coeffs = _BASIS_MATRIX[basis] @ state
    probs = (coeffs * coeffs.conj()).real.tolist()
    posts = tuple(_BELL_VECTORS[label] for label in _BASIS_LABELS[basis])
    entry = (probs, posts)
    if len(_MEASURE_CACHE) < _MEASURE_CACHE_MAX:
        _MEASURE_CACHE[key] = entry
    return entry


class MeasurementTables:
    """Sampling tables for joint-state Bell measurements of many rounds at once.

    States get small integer ids, keyed by the exact bytes of the state
    vector, so every float variant that :func:`_joint_table` produces is its
    own state. Row ``4 * id + 2 * (photon - 1) + basis`` holds, for the
    labels of positive probability in fixed order, the running sums that
    :func:`_sample_index` compares its draw against (accumulated in the same
    order), the labels' indices within the basis and the ids of their
    post-measurement states. Rows are built the first time a batch needs
    them; the protocol reaches a few hundred states at most.

    ``basis`` is encoded as 0 for type-I and 1 for type-II, labels as their
    index in :func:`basis_labels`. Safe to share between threads.
    """

    _BASES = tuple(BasisType)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[bytes, int] = {}
        self._states: list[np.ndarray] = []
        self._cum = np.empty((0, 4))
        self._top = np.empty(0, dtype=np.int8)
        self._label = np.empty((0, 4), dtype=np.int8)
        self._post = np.empty((0, 4), dtype=np.int32)
        self._built = np.empty(0, dtype=bool)
        self._state_id(_SHARED)

    def _grow(self) -> None:
        extra = max(256, len(self._built))

        def pad(arr, fill):
            tail = np.full((extra,) + arr.shape[1:], fill, dtype=arr.dtype)
            return np.concatenate([arr, tail])

        # Readers take the arrays without the lock, so the built flags are
        # replaced last.
        self._cum, self._top = pad(self._cum, np.inf), pad(self._top, 0)
        self._label, self._post = pad(self._label, 0), pad(self._post, 0)
        self._built = pad(self._built, False)

    def _state_id(self, state: np.ndarray) -> int:
        """Integer id of a joint state, registering it on first sight."""
        key = state.tobytes()
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._states)
            if 4 * (sid + 1) > len(self._built):
                self._grow()
            self._states.append(state)
            self._ids[key] = sid
        return sid

    def _build_row(self, row: int) -> None:
        sid, rest = divmod(row, 4)
        photon = Photon.ONE if rest < 2 else Photon.TWO
        probs, posts = _joint_table(self._states[sid], photon, self._BASES[rest % 2])
        acc = 0.0
        k = 0
        for i in range(4):
            if probs[i] <= 0.0:
                continue
            acc += probs[i]
            post_id = self._state_id(posts[i])
            self._cum[row, k] = acc
            self._label[row, k:] = i
            self._post[row, k:] = post_id
            k += 1
        self._top[row] = k - 1
        # Published last: readers check the flag without the lock.
        self._built[row] = True

    def measure(
        self, state_ids: np.ndarray, photon: Photon, bases, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure ``photon`` of each round's state in its basis with its draw.

        ``bases`` is one basis code for all rounds or an array of them.
        Returns the outcome label indices (int8) and post-state ids, each
        equal to what :func:`measure_party` gives for the same draw.
        """
        rows = state_ids * 4 + (2 * (photon.value - 1)) + bases
        if not self._built.take(rows).all():
            with self._lock:
                wanted = np.zeros(len(self._built), dtype=bool)
                wanted[rows] = True
                for row in np.flatnonzero(wanted & ~self._built).tolist():
                    self._build_row(row)
        cum, top, label, post = self._cum, self._top, self._label, self._post
        # The picked label is the first whose running sum exceeds the draw,
        # else the last: the number of sums at or below the draw, capped at
        # the last label's slot (at most 3, so the fourth sum never counts).
        sums = cum.take(rows, axis=0)
        below = sum((sums[:, i] <= uniforms).view(np.int8) for i in range(3))
        flat = rows * 4 + np.minimum(below, top.take(rows))
        return label.ravel().take(flat), post.ravel().take(flat)


#: Tables shared by every batch in the process.
MEASUREMENT_TABLES = MeasurementTables()


def expand_in_basis(
    state: np.ndarray, basis: BasisType
) -> list[tuple[BellLabel, complex]]:
    """Coefficients of a single-photon state in one Bell basis.

    Returns ``[(label, <label|state>), ...]`` for the four labels of
    ``basis`` in fixed order. For a normalized input the squared magnitudes
    sum to 1.
    """
    state = _require_normalized(np.asarray(state, dtype=np.complex128), 4, "state")
    coeffs = _BASIS_MATRIX[basis] @ state
    labels = _BASIS_LABELS[basis]
    return [(labels[i], complex(coeffs[i])) for i in range(4)]


def measure_party(
    state: np.ndarray, photon: Photon, basis: BasisType, rand: RandomSource
) -> MeasurementResult:
    """Bell-basis measurement of one photon of a joint state, with collapse.

    The outcome is sampled with Born probabilities; the post state is the
    normalized projection of ``state`` onto the outcome's Bell vector on
    the measured photon (the partner photon keeps its conditional state).
    Consumes exactly one uniform draw. Post states may be shared, read-only
    arrays.
    """
    probs, posts = _joint_table(np.asarray(state, dtype=np.complex128), photon, basis)
    idx = _sample_index(probs, rand.uniform())
    return MeasurementResult(
        label=_BASIS_LABELS[basis][idx], probability=probs[idx], post_state=posts[idx]
    )


def measure_single(
    state: np.ndarray, basis: BasisType, rand: RandomSource
) -> MeasurementResult:
    """Bell-basis measurement of a lone photon; the post state is the eigenstate."""
    probs, posts = _single_table(np.asarray(state, dtype=np.complex128), basis)
    idx = _sample_index(probs, rand.uniform())
    return MeasurementResult(
        label=_BASIS_LABELS[basis][idx], probability=probs[idx], post_state=posts[idx]
    )


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two states of the same dimension."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)
