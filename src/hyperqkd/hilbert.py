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
labels of a basis in their fixed declaration order, from two bits of its
random source, which makes every run bit-reproducible per seed.

A protocol round only reaches a closed set of 65 states: the shared state
and, up to a global phase, the 64 products of two Bell vectors. On them
every Born probability is 0, 1/4, 1/2 or 1, so the fixed tables
:data:`OUTCOME_LABEL` and :data:`OUTCOME_POST`, built once at import from
the Bell-overlap matrix, give each measurement's outcome from two fair
bits alone (exact sampling from dyadic laws, Knuth and Yao 1976), the
next two of a round's decision word. :func:`measure_party` samples these
states from the same tables and slots (:func:`outcome_slots`) as the batch
engine, and :func:`measure_single` a lone Bell vector as photon 2 of a
closed-set product; both measure nothing else, and raise ValueError for
any other state. The same exact overlaps, as
:func:`overlap_quarters`, are Eve's posteriors in :mod:`hyperqkd.adversary`.
This module is the one home of the basis and label codes (:data:`BASES`,
:data:`LABELS`): the batch engine's columns hold one label code per
measurement, and its tables are indexed by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotNormalizedError
from .rng import DecisionWord, RandomSource

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
    """The eight Bell states, four per basis, declared basis by basis in
    :class:`BasisType`'s order."""

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


#: A basis's code is its position here, a label's code its position in
#: LABELS: 4 * basis code + index in basis. The batch engine's columns and
#: tables hold these codes.
BASES = tuple(BasisType)
LABELS = tuple(BellLabel)
_BASIS_LABELS = {basis: LABELS[4 * code:4 * code + 4] for code, basis in enumerate(BASES)}
_LABEL_BASIS = {label: BASES[code // 4] for code, label in enumerate(LABELS)}


def _frozen(vector) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


# Row c is the Bell vector of label code c.
_BELL = _frozen([
    [_SQRT1_2, 0.0, 0.0, _SQRT1_2],    # Phi+
    [_SQRT1_2, 0.0, 0.0, -_SQRT1_2],   # Phi-
    [0.0, _SQRT1_2, _SQRT1_2, 0.0],    # Psi+
    [0.0, _SQRT1_2, -_SQRT1_2, 0.0],   # Psi-
    [0.5, 0.5, 0.5, -0.5],             # chi+
    [0.5, 0.5, -0.5, 0.5],             # chi-
    [0.5, -0.5, 0.5, 0.5],             # omega+
    [-0.5, 0.5, 0.5, 0.5],             # omega-
])
_BELL_VECTORS = dict(zip(LABELS, _BELL))
# Row l = the l-th Bell vector of the basis, in fixed label order. The Bell
# vectors are real, so <bell|psi> needs no conjugation of the basis matrix.
_BASIS_MATRIX = {basis: _BELL[4 * code:4 * code + 4] for code, basis in enumerate(BASES)}
# 4 |<a|b>|^2 for label codes a, b: 0 or 4 within a basis, 0 or 2 across.
_OVERLAP_QUARTERS = np.rint(4 * abs(_BELL.conj() @ _BELL.T) ** 2).astype(np.int8)

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


def overlap_quarters(sent: BellLabel, basis: BasisType) -> tuple[int, ...]:
    """Exact outcome probabilities, in quarters, of measuring the Bell state
    ``sent`` in ``basis``, for the basis's labels in order: (0, 0, 0, 4) up
    to order within its own basis, two 2s and two 0s in the other."""
    code = 4 * BASES.index(basis)
    return tuple(_OVERLAP_QUARTERS[LABELS.index(sent), code:code + 4].tolist())


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


# The closed set's measurement tables, over the codes of LABELS. State id
# 8 * c1 + c2 is the product of the Bell vectors with codes c1 (photon 1)
# and c2 (photon 2), and SHARED_ID the shared state. Measuring a product
# leaves the other photon's factor as it is; measuring the shared state
# leaves the partner in the measured label's Bell vector (its conditional
# state is +-1/2 times it). Up to a global phase, which changes no
# probability, these 65 are all the states a round reaches.

#: Id of the shared state in the closed set.
SHARED_ID = 64


def _row(state_ids, photon: Photon, bases):
    """Row of the closed set's tables for measuring ``photon`` of states
    ``state_ids`` in ``bases`` (basis codes); single values or arrays."""
    return 4 * state_ids + 2 * (photon.value - 1) + bases


def _closed_tables():
    """The closed set's tables, indexed by :func:`_row`: each label's
    probability in quarters at ``4 * row + label``, and the label and
    post-state id that two decision bits ``q`` give at ``4 * row + q`` (see
    :func:`outcome_slots`); and the states by id."""
    codes = np.arange(8).reshape(2, 4)  # [basis code, index in basis]
    c1, c2 = (c[:, None, None] for c in np.divmod(np.arange(SHARED_ID), 8))
    quarters = np.ones((SHARED_ID + 1, 2, 2, 4), dtype=np.int8)
    quarters[:SHARED_ID, 0] = _OVERLAP_QUARTERS[codes, c1]
    quarters[:SHARED_ID, 1] = _OVERLAP_QUARTERS[codes, c2]
    posts = np.empty((SHARED_ID + 1, 2, 2, 4), dtype=np.intp)
    posts[:SHARED_ID, 0] = 8 * codes + c2
    posts[:SHARED_ID, 1] = 8 * c1 + codes
    posts[SHARED_ID] = 9 * codes
    # Inverse-CDF sampling with two decision bits q: the label is the
    # first whose running quarter count exceeds q, i.e. the number of counts
    # at or below q. A label of probability 0 repeats the previous count, so
    # no q picks it.
    running = quarters.cumsum(axis=-1)
    labels = (running[..., None, :] <= np.arange(4)[:, None]).sum(axis=-1)
    products = np.einsum("ai,bj->abij", _BELL, _BELL).reshape(SHARED_ID, 16)
    tables = (
        quarters.ravel(),
        labels.astype(np.int8).ravel(),
        np.take_along_axis(posts, labels, axis=-1).ravel(),
        products,
    )
    for arr in tables:
        arr.flags.writeable = False
    return (*tables[:3], (*products, _SHARED))


#: Per slot (see :func:`outcome_slots`): the outcome's label index in its
#: basis, and the post-measurement state id.
_QUARTERS, OUTCOME_LABEL, OUTCOME_POST, _STATES = _closed_tables()


def _lookup_key(state: np.ndarray) -> bytes:
    """Bytes of ``state`` with each signed zero made +0.0, so that states
    equal in value have one key (``np.kron`` of two Bell vectors gives
    -0.0 where the tables hold 0.0)."""
    return (state + 0.0).tobytes()


_STATE_IDS = {_lookup_key(state): sid for sid, state in enumerate(_STATES)}
# State id c (< 8) is the product of Phi+ (code 0) with the Bell vector of
# code c, whose photon 2 has that vector's Born law.
_BELL_CODES = {_lookup_key(vector): code for code, vector in enumerate(_BELL)}


def outcome_slots(state_ids, photon: Photon, bases, bits):
    """Slots of :data:`OUTCOME_LABEL` and :data:`OUTCOME_POST` for measuring
    ``photon`` of closed-set states in their bases with their decision bits.

    ``state_ids``, ``bases`` (basis codes) and ``bits`` (each measurement's
    two decision bits, 0 to 3) are single values or arrays of a signed
    integer dtype. Slot ``4 * row + bits`` holds the label index in the
    basis and the post-measurement state id; :func:`measure_party` reads
    its outcome off the same slot.
    """
    # An int64 id keeps the sum with int8 codes from overflowing.
    return 4 * _row(np.asarray(state_ids, dtype=np.int64), photon, bases) + bits


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


def _closed_id(ids: dict, state, dim: int, what: str) -> int:
    """The id in ``ids`` of ``state``, which must equal one of the states
    they key in every entry, as this module returns it; raises ValueError
    for any other state."""
    state = np.asarray(state, dtype=np.complex128)
    sid = ids.get(_lookup_key(state)) if state.shape == (dim,) else None
    if sid is None:
        raise ValueError(f"only {what} are measured; the state given is none of them")
    return sid


def measure_party(
    state: np.ndarray, photon: Photon, basis: BasisType, rand: RandomSource | DecisionWord
) -> MeasurementResult:
    """Bell-basis measurement of one photon of a closed-set state, with collapse.

    ``state`` must equal one of the closed set's 65 states in every entry,
    as this module returns it (a signed zero counts as zero); any other
    state raises ValueError. The outcome is sampled from the fixed tables
    with its exact Born probability from two bits of ``rand`` (``bits(2)``:
    the top two of a RandomSource's next draw, or a DecisionWord's next
    two), and the post state is the closed-set state the projection of
    ``state`` onto the outcome's Bell vector on the measured photon leaves
    (the partner photon keeps its conditional state). Post states are
    shared, read-only arrays.
    """
    sid = _closed_id(_STATE_IDS, state, 16, "the closed set's 65 states")
    bits = rand.bits(2)
    slot = outcome_slots(sid, photon, BASES.index(basis), bits)
    idx = OUTCOME_LABEL.item(slot)
    return MeasurementResult(
        label=_BASIS_LABELS[basis][idx],
        probability=_QUARTERS.item(slot - bits + idx) / 4,
        post_state=_STATES[OUTCOME_POST.item(slot)],
    )


def measure_single(
    state: np.ndarray, basis: BasisType, rand: RandomSource | DecisionWord
) -> MeasurementResult:
    """Bell-basis measurement of a lone photon; the post state is the eigenstate.

    ``state`` must equal a Bell vector in every entry, as
    :func:`bell_vector` returns it; any other state raises ValueError. It
    is measured as photon 2 of the closed-set product of Phi+ with it, from
    the fixed tables with exact probabilities and two bits of ``rand``, as
    in :func:`measure_party`.
    """
    code = _closed_id(_BELL_CODES, state, 4, "the eight Bell vectors")
    res = measure_party(_STATES[code], Photon.TWO, basis, rand)
    return MeasurementResult(res.label, res.probability, _BELL_VECTORS[res.label])


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two states of the same dimension."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)
