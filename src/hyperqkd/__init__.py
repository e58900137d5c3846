"""Exact state-vector simulator for deterministic key distribution with
photon pairs entangled in both polarization and path.

The package is organized bottom-up: :mod:`hyperqkd.hilbert` holds the
4x4-dimensional state algebra and Bell-basis measurements,
:mod:`hyperqkd.protocol` the round engine and key extraction,
:mod:`hyperqkd.adversary` the intercept-resend attacks,
:mod:`hyperqkd.montecarlo` the batch driver and estimators, and
:mod:`hyperqkd.cli` the command-line report tool.
"""

from .adversary import (
    AttackConfig,
    AttackKind,
    EveBasisStrategy,
    EveRecord,
    eve_double_intercept,
    eve_guess_accuracy,
    eve_information,
    eve_single_intercept,
)
from .errors import ConfigurationError, NotNormalizedError
from .hilbert import (
    ATOL,
    BasisType,
    BellLabel,
    MeasurementResult,
    Photon,
    basis_labels,
    basis_of,
    bell_vector,
    build_shared_state,
    expand_in_basis,
    fidelity,
    measure_party,
    measure_single,
)
from .montecarlo import (
    EKERT_BITS_PER_PAIR,
    BatchResult,
    BatchStats,
    DetectionStats,
    SimConfig,
    detection_probability,
    ekert_ratio,
    run_batch,
)
from .protocol import (
    DIFF,
    SAME,
    KeyBits,
    RoundRecord,
    SiftGroups,
    VerificationReport,
    build_keys,
    choose_basis,
    encode_diff_basis,
    encode_same_basis,
    run_round,
    sift,
    verify_sample,
)
from .rng import RandomSource

__version__ = "0.12.0"

__all__ = [
    "ATOL",
    "AttackConfig",
    "AttackKind",
    "BasisType",
    "BatchResult",
    "BatchStats",
    "BellLabel",
    "ConfigurationError",
    "DIFF",
    "DetectionStats",
    "EKERT_BITS_PER_PAIR",
    "EveBasisStrategy",
    "EveRecord",
    "KeyBits",
    "MeasurementResult",
    "NotNormalizedError",
    "Photon",
    "RandomSource",
    "RoundRecord",
    "SAME",
    "SiftGroups",
    "SimConfig",
    "VerificationReport",
    "basis_labels",
    "basis_of",
    "bell_vector",
    "build_keys",
    "build_shared_state",
    "choose_basis",
    "detection_probability",
    "ekert_ratio",
    "encode_diff_basis",
    "encode_same_basis",
    "eve_double_intercept",
    "eve_guess_accuracy",
    "eve_information",
    "eve_single_intercept",
    "expand_in_basis",
    "fidelity",
    "measure_party",
    "measure_single",
    "run_batch",
    "run_round",
    "sift",
    "verify_sample",
]
