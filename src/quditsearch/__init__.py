"""Grover search on d-level registers.

State-vector simulation built on generalized Householder reflections,
deterministic phase-matching schedules, synthesis and validation of the
equal-superposition gate F, and pulse-level verification that a single
multipod interaction realizes the required reflection.
"""

from .engine import (
    ExperimentConfig,
    Trajectory,
    dense_grover_matrix,
    run_search,
    superposition_register,
)
from .fgates import (
    FGate,
    FValidation,
    coupling_design,
    dft,
    householder_f,
    make_f,
    random_phase_f,
    validate_f,
)
from .multipod import (
    LeakageError,
    MorrisShoreBasis,
    Propagator,
    PulseJob,
    ReflectionFit,
    analytic_sech_phase,
    extract_reflection,
    morris_shore,
    propagate,
    verify_f_pulse,
)
from .reflections import (
    Reflection,
    apply_local_gate,
    apply_reflection,
    diffusion_direct,
    diffusion_via_gates,
    grover_step,
    oracle,
    unitarity_defect,
)
from .register import (
    BasisIndex,
    QuditShape,
    StateVector,
    basis_state,
    population,
)
from .scheduler import (
    SearchSchedule,
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
    matched_phase,
    predicted_population,
)

__version__ = "0.1.0"

__all__ = [
    "BasisIndex",
    "ExperimentConfig",
    "FGate",
    "FValidation",
    "LeakageError",
    "MorrisShoreBasis",
    "Propagator",
    "PulseJob",
    "QuditShape",
    "Reflection",
    "ReflectionFit",
    "SearchSchedule",
    "StateVector",
    "Trajectory",
    "analytic_sech_phase",
    "apply_local_gate",
    "apply_reflection",
    "basis_state",
    "canonical_schedule",
    "coupling_design",
    "custom_schedule",
    "dense_grover_matrix",
    "deterministic_schedule",
    "dft",
    "diffusion_direct",
    "diffusion_via_gates",
    "extract_reflection",
    "grover_step",
    "householder_f",
    "make_f",
    "matched_phase",
    "morris_shore",
    "oracle",
    "population",
    "predicted_population",
    "propagate",
    "random_phase_f",
    "run_search",
    "superposition_register",
    "unitarity_defect",
    "validate_f",
    "verify_f_pulse",
]
