"""Grover search on d-level registers.

State-vector simulation built on generalized Householder reflections,
deterministic phase-matching schedules, synthesis and validation of the
equal-superposition gate F, and pulse-level verification that a single
multipod interaction realizes the required reflection.
"""

from .engine import ExperimentConfig, Trajectory, run_search
from .fgates import FGate, coupling_design, make_f
from .multipod import (
    LeakageError,
    PulseJob,
    extract_reflection,
    propagate,
    verify_f_pulse,
)
from .register import BasisIndex, QuditShape
from .scheduler import SearchSchedule, deterministic_schedule

__version__ = "0.1.0"
