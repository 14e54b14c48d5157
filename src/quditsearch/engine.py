"""Full search runs: initialization, iteration, trajectory recording.

A run prepares |0...0>, applies F to every qudit, then iterates the
Grover step.  The diffusion axis F^(x)n |0> is precomputed once and
applied as a rank-1 update (two O(N) passes per step).  The local-gate
sandwich ``reflections.diffusion_via_gates`` is not a run path; tests
compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgates import FGate, make_f, validate_f
from .reflections import apply_local_gate, grover_step
from .register import BasisIndex, QuditShape, StateVector, basis_state, population
from .scheduler import SearchSchedule


@dataclass(frozen=True)
class ExperimentConfig:
    """One search experiment: geometry, target, schedule, and gate choices."""

    shape: QuditShape
    marked: BasisIndex
    schedule: SearchSchedule
    f_kind: str = "householder"

    def __post_init__(self) -> None:
        if not 0 <= self.marked.flat < self.shape.N:
            raise ValueError(
                f"marked index {self.marked.flat} outside [0, {self.shape.N})"
            )
        if self.schedule.N != self.shape.N:
            raise ValueError(
                f"schedule is for N={self.schedule.N}, register has N={self.shape.N}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Marked-state population after each Grover step (entry 0 = start)."""

    populations: np.ndarray
    peak_step: int
    peak_population: float

    @classmethod
    def from_populations(cls, populations: list[float]) -> "Trajectory":
        pops = np.asarray(populations, dtype=float)
        peak = int(np.argmax(pops))  # earliest index on ties
        return cls(pops, peak, float(pops[peak]))


def superposition_register(shape: QuditShape, f: FGate | np.ndarray) -> StateVector:
    """F^(x)n |0>: the equal-weight starting superposition."""
    matrix = f.matrix if isinstance(f, FGate) else np.asarray(f, dtype=np.complex128)
    state = basis_state(shape, 0)
    for k in range(shape.n):
        apply_local_gate(state, matrix, k)
    return state


def _resolve_f(cfg: ExperimentConfig, f_gate: FGate | None) -> FGate:
    """The explicit gate if given (it must meet the F contract), else cfg.f_kind."""
    if f_gate is None:
        return make_f(cfg.shape.d, cfg.f_kind)
    report = validate_f(f_gate)
    if not report.passed:
        raise ValueError(
            f"F gate fails its contract: unitarity defect "
            f"{report.unitarity_defect:.3e}, first-column deviation "
            f"{report.column_deviation:.3e}"
        )
    return f_gate


def run_search(
    cfg: ExperimentConfig, f_gate: FGate | None = None, steps: int | None = None
) -> Trajectory:
    """Run Grover steps and record the marked-state population after each.

    ``steps`` defaults to the schedule's step count; more steps expose the
    oscillatory tail past the schedule.  An explicit ``f_gate`` (e.g. a
    pulse-synthesized matrix) overrides the config's f_kind tag.
    """
    if steps is None:
        steps = cfg.schedule.steps
    elif steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    f = _resolve_f(cfg, f_gate)
    state = superposition_register(cfg.shape, f)
    axis = state.copy()
    phi = cfg.schedule.phi
    marked = cfg.marked.flat
    populations = [population(state, marked)]
    for _ in range(steps):
        grover_step(state, marked, phi, phi, axis)
        populations.append(population(state, marked))
    return Trajectory.from_populations(populations)


def dense_grover_matrix(
    cfg: ExperimentConfig, f_gate: FGate | None = None
) -> np.ndarray:
    """Brute-force N x N Grover operator, one basis vector per column."""
    N = cfg.shape.N
    if N > 1024:
        raise ValueError(f"dense matrix limited to N <= 1024, got N={N}")
    f = _resolve_f(cfg, f_gate)
    axis = superposition_register(cfg.shape, f)
    phi = cfg.schedule.phi
    marked = cfg.marked.flat
    matrix = np.zeros((N, N), dtype=np.complex128)
    for col in range(N):
        state = basis_state(cfg.shape, col)
        grover_step(state, marked, phi, phi, axis)
        matrix[:, col] = state.amps
    return matrix
