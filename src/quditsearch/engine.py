"""Full search runs: initialization, iteration, trajectory recording.

A run prepares a = F^(x)n |0...0> as the Kronecker power of F's first
column, then iterates the Grover step.  That state is also the diffusion
axis, kept as its two Kronecker halves a = kron(head, tail) (F's first
column to the floor(n/2)-th and ceil(n/2)-th power, at most d^ceil(n/2)
entries each) and applied as a rank-1 update of the state viewed as the
Fortran (tail.size x head.size) matrix S.  The update's only global
quantity, the overlap <a|s>, is carried from step to step by its exact
O(1) recurrence, so step k's update is S += c_k tail head^T with a
coefficient c_k known without touching the state.

The run is tiled in time.  S is cut into blocks of whole columns, each
at most _BLOCK_BYTES (one block if the state fits).  The block that holds
the marked amplitude takes the steps one by one: oracle kick, its share
of the update, population.  That records c_1 ... c_K.  Every other block
then takes the K recorded updates in order, in one visit while it sits
in cache, instead of being streamed from L3 or memory once per step (see
_BLOCK_BYTES for the rates).  Each amplitude gets the same updates in the
same order as in a step-by-step loop, so the trajectory and the final
state are the same to the bit.  The shared rank-1 kernel forms each
amplitude the same way on any number of BLAS threads, so the trajectory
does not depend on that count either.  One contraction of the whole
state with the two factors after the last step checks the carried
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reflections
from .fgates import FGate, f_constructor, make_f, validate_f
# apply_local_gate and grover_step are unused here but kept importable under
# these names: the benchmark tracer (benchmark/run.py) wraps both in this module.
from .reflections import Axis, apply_local_gate, axis_overlap, axis_view, grover_step  # noqa: F401
from .register import BasisIndex, QuditShape, StateVector, population
from .scheduler import SearchSchedule

# Largest |carried - measured| axis overlap a run accepts after its last step.
OVERLAP_TOLERANCE = 1e-8

# Largest block of the state, in bytes, that run_search gives all its steps
# in one visit (at least one column).  It should sit in a core's L2.  On a
# 2-core Xeon VM with 2 MiB of L2 per core, at N = 3^12, 574 zgeru updates on
# 2 threads moved 80-97 GB/s on 2 MiB blocks (179 columns), 74-86 GB/s on
# 1 MiB and 64-75 GB/s on 0.5 MiB blocks, against 56-59 GB/s on the whole
# 8 MiB state.
_BLOCK_BYTES = 2 << 20


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
    """Marked-state population after each Grover step (entry 0 = start); the
    peak is read off the populations, at the earliest step on ties."""

    populations: np.ndarray

    @property
    def peak_step(self) -> int:
        return int(np.argmax(self.populations))

    @property
    def peak_population(self) -> float:
        return float(self.populations[self.peak_step])


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
    rotation = np.exp(1j * phi) - 1.0  # times the overlap, as diffusion_direct forms it
    kick = complex(rotation)
    # An explicit gate meets the F contract only to 1e-10, so ||a||^2 is
    # measured, not assumed to be 1; any error in it compounds every step.
    norm2 = _squared_norm(head) * _squared_norm(tail)
    gain = 1.0 + kick * norm2
    # a_m = head_j tail_i with m = j * tail.size + i
    axis_m = (head.item(marked // tail.size) * tail.item(marked % tail.size)).conjugate()
    overlap = complex(norm2)  # <a|s>: the state starts on the axis
    matrix = axis_view(state, axis)
    width = max(1, _BLOCK_BYTES // (16 * tail.size))  # columns per block
    home = marked // tail.size // width * width  # first column of the marked block
    buffer = np.empty(min(width, head.size), dtype=np.complex128)
    coefficients = np.empty(steps, dtype=np.complex128)

    def block(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns [start, start + width) of S, head's share of them, and a
        buffer of that size for rank1_update."""
        part = head[start:start + width]
        return matrix[:, start:start + width], part, buffer[:part.size]

    columns, part, scaled = block(home)
    populations = [population(state, marked)]
    for k in range(steps):
        # the oracle moves amplitude m alone: <a|Os> = <a|s> + kick s_m conj(a_m)
        overlap += kick * state.amps.item(marked) * axis_m
        reflections.oracle(state, marked, phi)
        alpha = coefficients[k] = rotation * overlap
        reflections.rank1_update(columns, alpha, tail, part, scaled)
        # the diffusion: <a|M(a) Os> = (1 + kick ||a||^2) <a|Os>
        overlap *= gain
        populations.append(population(state, marked))
    for start in range(0, head.size, width):
        if start != home:
            columns, part, scaled = block(start)
            for alpha in coefficients:
                reflections.rank1_update(columns, alpha, tail, part, scaled)
    # Measured only here, over every block, never fed back into a step.
    drift = abs(axis_overlap(state, axis) - overlap)
    if not drift <= OVERLAP_TOLERANCE:  # a NaN drift fails too
        raise RuntimeError(
            f"carried axis overlap is {drift:.3e} off the measured one after "
            f"{steps} steps (tolerance {OVERLAP_TOLERANCE:.0e})"
        )
    return Trajectory(np.array(populations))
