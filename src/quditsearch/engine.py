"""Full search runs: initialization, iteration, trajectory recording.

A run reads F only through its first column (``fgates.f_column`` for a
tag; no d x d gate is built).  It starts on the diffusion axis a =
F^(x)n |0...0>, kept as its two Kronecker halves a = kron(head, tail),
chains of np.multiply.outer over that column to the floor(n/2)-th and
ceil(n/2)-th power.
The start state is their outer product, written into the state's own
buffer with nothing N-sized beside it, so each run starts exactly on
its axis.  The diffusion is a rank-1 update of the state viewed as the
Fortran (tail.size x head.size) matrix S.  The update's only global
quantity, the overlap <a|s>, is carried from step to step by its exact
O(1) recurrence, so step k's update is S += c_k tail head^T with a
coefficient c_k known without touching the state.

Searches that share a register, a schedule and F differ in their marked
index only, so they share the axis too, and every search runs in a
stack of K >= 1 of them (``run_searches``; a lone run is a stack of one).
Run r's amplitudes are the slab [r N, (r + 1) N) of one array, and the
runs' matrices side by side form the Fortran (tail.size x K head.size)
matrix, whose K updates at step k are one rank-1 update with head factor
[c_k1 head, ..., c_kK head].  A stack holds as many runs as fit in
_BLOCK_BYTES, and it is cut into blocks of whole columns only when one
run exceeds that.  The block that holds the marked amplitudes goes
first and takes the steps one by one: each run's population, carried
overlap and oracle kick (one read and one write of its marked amplitude)
give its coefficient, then the block takes its share of the update.
Every other block then takes the recorded updates in order, in one visit
while it sits in cache, instead of being streamed from L3 or memory once
per step (the README gives the rates).  Each amplitude gets the same
updates, formed the same way and in the same order, as in a step-by-step
loop of its run alone, so the trajectory and the final state are the
same to the bit.  The shared rank-1 kernel forms each amplitude the same
way on any number of BLAS threads, so they do not depend on that count
either.  One contraction of each run's state with the two factors after
the last step checks its carried overlap; it runs no BLAS, so every
number a run computes is the same on any number of BLAS threads.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import reflections
from .fgates import FGate, f_column, f_constructor, validate_f
# make_f, apply_local_gate and grover_step are unused here but kept importable
# under these names: the benchmark tracer (benchmark/run.py) wraps them in this module.
from .fgates import make_f  # noqa: F401
from .reflections import Axis, apply_local_gate, axis_overlap, grover_step  # noqa: F401
from .register import BasisIndex, QuditShape, StateVector, population, _squared_norm
from .scheduler import SearchSchedule

# Largest |carried - measured| axis overlap a run accepts after its last step.
OVERLAP_TOLERANCE = 1e-8

# Largest block of the state, in bytes, that a run gives all its steps in
# one visit (at least one column), and the largest stack of runs that
# run_searches makes one state (at least one run).  It should sit in a
# core's L2; the README's introduction gives the update rates and run times
# it buys, against the whole state and against runs one after another.
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


def superposition_register(shape: QuditShape, axis: Axis, out: np.ndarray) -> StateVector:
    """F^(x)n |0>, the equal-weight starting superposition, built in ``out``.

    The state is np.multiply.outer(head, tail) of ``diffusion_axis``'s
    pair ``axis``, one product per amplitude in one numpy call, so it is
    its axis to the bit.  Against n ``apply_local_gate`` passes on |0...0>
    each amplitude can differ in the last bits, since the two group the
    same n factors differently.  ``out`` is a C-contiguous, writeable
    complex128 array of shape (N,) (a run's slab of a stacked state): the
    product is written into it, and it becomes the state's buffer.  Any
    other ``out`` raises ValueError, since it could not be that buffer.
    """
    if not (
        out.dtype == np.complex128 and out.shape == (shape.N,)
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a C-contiguous, writeable complex128 array of shape ({shape.N},)"
        )
    head, tail = axis
    np.multiply.outer(head, tail, out=out.reshape(head.size, tail.size))
    return StateVector(shape, out)


def diffusion_axis(shape: QuditShape, column: np.ndarray) -> Axis:
    """F^(x)n |0> as the pair (head, tail) with F^(x)n |0> = kron(head, tail).

    ``column`` is F's first column (d entries).  tail is its ceil(n/2)-th
    Kronecker power and head its floor(n/2)-th (ones(1) at n = 1), so
    neither has more than d^ceil(n/2) entries; each is np.multiply.outer
    chained left to right from ones(1) over the column.
    """
    return tuple(
        functools.reduce(np.multiply.outer, [column] * k, np.ones(1, np.complex128)).ravel()
        for k in (shape.n // 2, shape.n - shape.n // 2)
    )


def _resolve_f(cfg: ExperimentConfig, f_gate: FGate | None) -> np.ndarray:
    """F's first column: the explicit gate's (d x d, meeting the F contract), else cfg.f_kind's."""
    if f_gate is None:
        return f_column(cfg.shape.d, cfg.f_kind)
    report = validate_f(f_gate)
    if not report.passed:
        raise ValueError(
            f"F gate fails its contract: unitarity defect "
            f"{report.unitarity_defect:.3e}, first-column deviation "
            f"{report.column_deviation:.3e}"
        )
    d = cfg.shape.d
    if f_gate.matrix.shape != (d, d):
        raise ValueError(f"gate has shape {f_gate.matrix.shape}, expected ({d}, {d})")
    return f_gate.matrix[:, 0]


def run_search(cfg: ExperimentConfig, f_gate: FGate | None = None) -> Trajectory:
    """Run the schedule's steps and record the marked-state population after each.

    A schedule with more steps (``custom_schedule``) exposes the oscillatory
    tail.  An explicit ``f_gate`` (e.g. a pulse-synthesized matrix)
    overrides the config's f_kind tag.  Raises RuntimeError if the overlap
    carried across the steps is more than ``OVERLAP_TOLERANCE`` off the one
    measured after the last step.  This is ``run_searches`` of one config.
    """
    return run_searches([cfg], f_gate)[0]


def run_searches(
    cfgs: Sequence[ExperimentConfig], f_gate: FGate | None = None
) -> list[Trajectory]:
    """``run_search`` of each config, in order, run together: the same
    trajectories and final states to the bit.

    The configs must share shape, schedule and f_kind (ValueError
    otherwise); they differ in their marked index only, so every run has
    the same diffusion axis.  They run in stacks of as many runs as fit in
    ``_BLOCK_BYTES`` (at least one), each stack one state of K N amplitudes.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    first = cfgs[0]
    for cfg in cfgs[1:]:
        if (cfg.shape, cfg.schedule, cfg.f_kind) != (first.shape, first.schedule, first.f_kind):
            raise ValueError(
                "run_searches needs one shape, schedule and f_kind for every "
                "config; they may differ in the marked index only"
            )
    column = _resolve_f(first, f_gate)
    size = max(1, _BLOCK_BYTES // (16 * first.shape.N))
    return [traj for start in range(0, len(cfgs), size)
            for traj in _run_stack(cfgs[start:start + size], column)]


def _run_stack(cfgs: list[ExperimentConfig], column: np.ndarray) -> list[Trajectory]:
    """The searches of ``cfgs`` as one stacked state (see the module docstring)."""
    shape, count = cfgs[0].shape, len(cfgs)
    steps, phi = cfgs[0].schedule.steps, cfgs[0].schedule.phi
    axis = head, tail = diffusion_axis(shape, column)
    stack = np.empty(count * shape.N, dtype=np.complex128)
    # per run: its state, built as the slab [r N, (r + 1) N) of the stack,
    # and that state's amplitudes; its marked index m; conj(a_m),
    # a_m = head_j tail_i with m = j * tail.size + i; and the populations
    # recorded so far
    runs = []
    for r, cfg in enumerate(cfgs):
        state = superposition_register(shape, axis, stack[r * shape.N:(r + 1) * shape.N])
        m = cfg.marked.flat
        runs.append((state, state.amps, m,
                     (head.item(m // tail.size) * tail.item(m % tail.size)).conjugate(), []))
    phase = complex(np.exp(1j * phi))  # the oracle's factor, as reflections.oracle forms it
    kick = complex(np.exp(1j * phi) - 1.0)  # e^{i phi} - 1, as diffusion_direct forms it
    # An explicit gate meets the F contract only to 1e-10, so ||a||^2 is
    # measured, not assumed to be 1; any error in it compounds every step.
    norm2 = _squared_norm(head) * _squared_norm(tail)
    gain = 1.0 + kick * norm2
    overlaps = [complex(norm2)] * count  # <a|s>: each state starts on the axis
    # S[i, j, r] = amplitude j * tail.size + i of run r: every run's state
    # as the Fortran (tail.size x head.size) matrix, side by side
    cube = stack.reshape((tail.size, head.size, count), order="F")
    # head columns per block; a stack of several runs fits in one block
    # (run_searches cuts it so), so only a lone run is tiled
    width = max(1, _BLOCK_BYTES // (16 * tail.size * count))
    # first column of the block that holds the marked amplitudes (every run's)
    home = cfgs[0].marked.flat // tail.size // width * width
    # step k's coefficients, one row per run, taken by the block's update as a column
    coefficients = np.empty((steps, count), dtype=np.complex128)
    alphas = coefficients[:, :, None]
    for start in [home, *(s for s in range(0, head.size, width) if s != home)]:
        # columns [start, start + width) of every run's S as one Fortran
        # matrix, and its rank-1 update by tail and head's share of them
        columns = cube[:, start:start + width].reshape((tail.size, -1), order="F")
        update = reflections.rank1_kernel(columns, tail, head[start:start + width])
        for k in range(steps):
            if start == home:  # the first block records every step's coefficients
                for r, (_, amps, m, axis_m, populations) in enumerate(runs):
                    amp = amps.item(m)  # s_m, read once
                    populations.append(abs(amp) ** 2)  # after step k - 1, or the start
                    # the oracle moves amplitude m alone: <a|Os> = <a|s> + kick s_m conj(a_m)
                    overlap = overlaps[r] + kick * amp * axis_m
                    amps[m] = amp * phase
                    coefficients[k, r] = kick * overlap
                    # the diffusion: <a|M(a) Os> = (1 + kick ||a||^2) <a|Os>
                    overlaps[r] = overlap * gain
            update(alphas[k])
    trajectories = []
    # Measured only here, over every block, never fed back into a step.
    for (state, _, m, _, populations), overlap in zip(runs, overlaps):
        drift = abs(axis_overlap(state, axis) - overlap)
        if not drift <= OVERLAP_TOLERANCE:  # a NaN drift fails too
            raise RuntimeError(
                f"carried axis overlap is {drift:.3e} off the measured one after "
                f"{steps} steps of the search for marked index {m} "
                f"(tolerance {OVERLAP_TOLERANCE:.0e})"
            )
        populations.append(population(state, m))  # after the last step
        trajectories.append(Trajectory(np.array(populations)))
    return trajectories
