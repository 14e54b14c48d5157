"""Full search runs: initialization, iteration, trajectory recording.

A run prepares a = F^(x)n |0...0> as the Kronecker power of F's first
column, then iterates the Grover step.  That state is also the diffusion
axis, kept as its two Kronecker halves a = kron(head, tail) (F's first
column to the floor(n/2)-th and ceil(n/2)-th power, at most d^ceil(n/2)
entries each) and applied as a rank-1 update.  The update's only global
quantity, the overlap <a|s>, is carried from step to step by its exact
O(1) recurrence, so a step is one in-place zgeru pass over the state,
32 N bytes.  No multi-threaded reduction feeds the trajectory, so it does
not depend on the BLAS thread count.  One contraction of the state with
the two factors after the last step checks the carried overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fgates import FGate, f_constructor, make_f, validate_f
# apply_local_gate is unused here but kept importable under this name: the
# benchmark tracer (benchmark/run.py) wraps quditsearch.engine.apply_local_gate.
from .reflections import Axis, apply_local_gate, axis_overlap, grover_step  # noqa: F401
from .register import BasisIndex, QuditShape, StateVector, population
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


def _first_column(shape: QuditShape, f: FGate) -> np.ndarray:
    """F's first column as a fresh complex128 array (one a state may own)."""
    if f.matrix.shape != (shape.d, shape.d):
        raise ValueError(f"gate has shape {f.matrix.shape}, expected ({shape.d}, {shape.d})")
    return np.array(f.matrix[:, 0], dtype=np.complex128)


def _kron_power(column: np.ndarray, k: int) -> np.ndarray:
    """column^(x)k, multiplied left to right (ones(1) at k = 0).

    np.multiply.outer forms the same products as np.kron at a fraction of
    its per-call cost, which dominates at small N.
    """
    power = column if k else np.ones(1, dtype=np.complex128)
    for _ in range(k - 1):
        power = np.multiply.outer(power, column).ravel()
    return power


def superposition_register(shape: QuditShape, f: FGate) -> StateVector:
    """F^(x)n |0>: the equal-weight starting superposition.

    Built as the Kronecker power of F's first column: each amplitude is the
    same chain of complex products that n ``apply_local_gate`` passes on
    |0...0> would form, in one O(N) pass instead of n.  For a real first
    column (Householder, DFT) the two agree to the bit; for a complex one
    they can differ in the last bits, because numpy's vectorized complex
    multiply may fuse a multiply-add that the einsum loop rounds twice.
    """
    return StateVector(shape, _kron_power(_first_column(shape, f), shape.n))


def diffusion_axis(shape: QuditShape, f: FGate) -> Axis:
    """F^(x)n |0> as the pair (head, tail) with F^(x)n |0> = kron(head, tail).

    tail is F's first column to the ceil(n/2)-th Kronecker power and head to
    the floor(n/2)-th (ones(1) at n = 1), so neither has more than
    d^ceil(n/2) entries.
    """
    column = _first_column(shape, f)
    return _kron_power(column, shape.n // 2), _kron_power(column, shape.n - shape.n // 2)


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


def run_search(cfg: ExperimentConfig, f_gate: FGate | None = None) -> Trajectory:
    """Run the schedule's steps and record the marked-state population after each.

    A schedule with more steps (``custom_schedule``) exposes the oscillatory
    tail.  An explicit ``f_gate`` (e.g. a pulse-synthesized matrix)
    overrides the config's f_kind tag.  Raises RuntimeError if the overlap
    carried across the steps is more than ``OVERLAP_TOLERANCE`` off the one
    measured after the last step.
    """
    steps = cfg.schedule.steps
    f = _resolve_f(cfg, f_gate)
    state = superposition_register(cfg.shape, f)
    axis = head, tail = diffusion_axis(cfg.shape, f)
    phi = cfg.schedule.phi
    marked = cfg.marked.flat
    kick = complex(np.exp(1j * phi)) - 1.0
    # An explicit gate meets the F contract only to 1e-10, so ||a||^2 is
    # measured, not assumed to be 1; any error in it compounds every step.
    norm2 = _squared_norm(head) * _squared_norm(tail)
    gain = 1.0 + kick * norm2
    # a_m = head_j tail_i with m = j * tail.size + i
    axis_m = (head.item(marked // tail.size) * tail.item(marked % tail.size)).conjugate()
    overlap = complex(norm2)  # <a|s>: the state starts on the axis
    populations = [population(state, marked)]
    for _ in range(steps):
        # the oracle moves amplitude m alone: <a|Os> = <a|s> + kick s_m conj(a_m)
        overlap += kick * state.amps.item(marked) * axis_m
        grover_step(state, marked, phi, axis, overlap)
        # the diffusion: <a|M(a) Os> = (1 + kick ||a||^2) <a|Os>
        overlap *= gain
        populations.append(population(state, marked))
    # Measured only here, never fed back: every step stays one zgeru pass.
    drift = abs(axis_overlap(state, axis) - overlap)
    if not drift <= OVERLAP_TOLERANCE:  # a NaN drift fails too
        raise RuntimeError(
            f"carried axis overlap is {drift:.3e} off the measured one after "
            f"{steps} steps (tolerance {OVERLAP_TOLERANCE:.0e})"
        )
    return Trajectory.from_populations(populations)

