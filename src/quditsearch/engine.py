"""Full search runs: initialization, iteration, trajectory recording.

A run prepares a = F^(x)n |0...0> as the Kronecker power of F's first
column, then iterates the Grover step.  That state is also the diffusion
axis, copied once and applied as a rank-1 update.  The update's only
global quantity, the overlap <a|s>, is carried from step to step by its
exact O(1) recurrence, so a step is one elementwise zaxpy pass over the
state.  No multi-threaded reduction feeds the trajectory, so it does not
depend on the BLAS thread count.  One zdotc after the last step checks the
carried overlap against the state.  The local-gate sandwich
``reflections.diffusion_via_gates`` is not a run path; tests compare
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fgates import FGate, f_constructor, make_f, validate_f
# apply_local_gate is unused here but kept importable under this name: the
# benchmark tracer (benchmark/run.py) wraps quditsearch.engine.apply_local_gate.
from .reflections import apply_local_gate, grover_step, zdotc  # noqa: F401
from .register import BasisIndex, QuditShape, StateVector, basis_state, population
from .scheduler import SearchSchedule

# Largest |carried - measured| axis overlap a run accepts after its last step.
OVERLAP_TOLERANCE = 1e-8


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
        f_constructor(self.f_kind)  # an unknown tag fails here, not at run start


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
    """F^(x)n |0>: the equal-weight starting superposition.

    Built as the Kronecker power of F's first column: each amplitude is the
    same chain of complex products that n ``apply_local_gate`` passes on
    |0...0> would form, in one O(N) pass instead of n.  For a real first
    column (Householder, DFT) the two agree to the bit; for a complex one
    they can differ in the last bits, because numpy's vectorized complex
    multiply may fuse a multiply-add that the einsum loop rounds twice.
    """
    matrix = f.matrix if isinstance(f, FGate) else np.asarray(f, dtype=np.complex128)
    if matrix.shape != (shape.d, shape.d):
        raise ValueError(f"gate has shape {matrix.shape}, expected ({shape.d}, {shape.d})")
    column = np.array(matrix[:, 0], dtype=np.complex128)  # a copy the state may own
    return StateVector(shape, reduce(np.kron, [column] * shape.n))


def _squared_norm(amps: np.ndarray) -> float:
    """sum_x |amps_x|^2, accurate to a few ulp and independent of BLAS threads.

    numpy sums each block pairwise on one thread and fsum adds the block
    sums exactly, with no N-sized temporary.  BLAS zdotc is neither: at
    N=3^12 its sequential sum is off by about 7e-13, by a different amount
    on one thread than on two.
    """
    x = amps.view(np.float64)
    block = 1 << 13  # 64 KiB of squares at a time
    return math.fsum(float(np.sum(np.square(x[i:i + block]))) for i in range(0, x.size, block))


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
    pulse-synthesized matrix) overrides the config's f_kind tag.  Raises
    RuntimeError if the overlap carried across the steps is more than
    ``OVERLAP_TOLERANCE`` off the one measured after the last step.
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
    kick = complex(np.exp(1j * phi)) - 1.0
    # An explicit gate meets the F contract only to 1e-10, so ||a||^2 is
    # measured, not assumed to be 1; any error in it compounds every step.
    norm2 = _squared_norm(axis.amps)
    gain = 1.0 + kick * norm2
    axis_m = axis.amps.item(marked).conjugate()
    overlap = complex(norm2)  # <a|s>: the state starts on the axis
    populations = [population(state, marked)]
    for _ in range(steps):
        # the oracle moves amplitude m alone: <a|Os> = <a|s> + kick s_m conj(a_m)
        overlap += kick * state.amps.item(marked) * axis_m
        grover_step(state, marked, phi, phi, axis, overlap)
        # the diffusion: <a|M(a) Os> = (1 + kick ||a||^2) <a|Os>
        overlap *= gain
        populations.append(population(state, marked))
    # Measured only here, never fed back: every step stays an elementwise pass.
    drift = abs(zdotc(axis.amps, state.amps) - overlap)
    if drift > OVERLAP_TOLERANCE:
        raise RuntimeError(
            f"carried axis overlap is {drift:.3e} off the measured one after "
            f"{steps} steps (tolerance {OVERLAP_TOLERANCE:.0e})"
        )
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
