"""Optimal unambiguous discrimination of linearly independent pure states.

Computes the measurement minimizing the probability of an inconclusive
result via a native primal-dual interior-point SDP solver, certifies
optimality from necessary-and-sufficient conditions, analyzes when the
equal-probability measurement is optimal, and solves group-symmetric
state sets in closed form.
"""

from .ensemble import (
    Measurement,
    ReciprocalSet,
    StateEnsemble,
    detection_probability,
    dump_ensemble,
    inconclusive_probability,
    load_ensemble,
    measurement_from_probs,
    reciprocal_states,
)
from .epm import (
    EpmAnalysis,
    EpmOptimalityResult,
    EpmVerdict,
    compute_epm,
    epm_analysis,
    epm_certificate,
    epm_test_lp,
    epm_test_spectral,
    priors_for_epm,
)
from .errors import LinearDependenceError, ValidationError
from .simulate import SimulationResult, outcome_probabilities, simulate
from .solver import (
    DualCertificate,
    SdpProblem,
    SolveReport,
    SolveStatus,
    VerificationReport,
    build_sdp,
    solve,
    verify_certificate,
)
from .symmetry import (
    PhaseCommutation,
    SymmetricSolution,
    SymmetrySpec,
    UnitaryGroup,
    check_commute_phase,
    expand,
    load_symmetry_spec,
    solve_cgu,
    solve_gu,
    verify_group,
)

__version__ = "0.1.0"

__all__ = [
    "StateEnsemble",
    "ReciprocalSet",
    "Measurement",
    "load_ensemble",
    "dump_ensemble",
    "reciprocal_states",
    "measurement_from_probs",
    "detection_probability",
    "inconclusive_probability",
    "SdpProblem",
    "SolveStatus",
    "SolveReport",
    "DualCertificate",
    "VerificationReport",
    "build_sdp",
    "solve",
    "verify_certificate",
    "EpmVerdict",
    "EpmAnalysis",
    "EpmOptimalityResult",
    "epm_analysis",
    "compute_epm",
    "epm_test_lp",
    "epm_test_spectral",
    "priors_for_epm",
    "epm_certificate",
    "UnitaryGroup",
    "SymmetrySpec",
    "SymmetricSolution",
    "PhaseCommutation",
    "verify_group",
    "expand",
    "check_commute_phase",
    "solve_gu",
    "solve_cgu",
    "load_symmetry_spec",
    "simulate",
    "outcome_probabilities",
    "SimulationResult",
    "ValidationError",
    "LinearDependenceError",
]
