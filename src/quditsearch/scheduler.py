"""Phase-matched search schedules.

Writing beta = arcsin(1/sqrt(N)), a phase-matched Grover iteration with
oracle and diffusion phases both equal to phi rotates the state inside
the two-dimensional subspace spanned by the marked state and the
equal-weight superposition.  Choosing

    phi = 2 arcsin( sin(pi / (4 N_G + 2)) / sin(beta) )

makes the rotation land exactly on the marked state after N_G steps, for
any N_G >= pi/(4 beta) - 1/2 (the arcsin argument is then <= 1).  The
deterministic schedule picks N_G = j or j + 1, with
j = floor(pi/(4 beta) + 1/2), according to whether (2j+1) beta or
(2j-1) beta is closer to pi/2.  The canonical schedule is the familiar
phi = pi with round((pi/4) sqrt(N)) steps, which peaks near but not at
unit population.
A SearchSchedule derives beta and j from its N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .register import _integer

# Longest run custom_schedule accepts.  run_search keeps one Python float per
# step, about 32 MB at this cap, and writes nothing until the last step.  It
# also records each step's rank-1 coefficient, 16 bytes per step, to replay
# them on the blocks of the state that do not hold the marked amplitude:
# 16 MB more at this cap.
MAX_STEPS = 10**6

# pi/(4 beta) + 1/2 grows like (pi/4) sqrt(N).  From 2**51 up its doubles are
# spaced by 1/2 or more, so a 1-ulp change moves the floor of every one of
# them; that first happens near this N.
_MAX_RESOLVABLE_N = (2**53 / math.pi) ** 2


@dataclass(frozen=True)
class SearchSchedule:
    """Iteration plan for an integral N: a finite phase phi, an integral step
    count >= 0, and beta = arcsin(1/sqrt(N)), j = floor(pi/(4 beta) + 1/2)
    derived from N."""

    N: int
    beta: float = field(init=False)
    j: int = field(init=False)
    phi: float
    steps: int
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, "database size"))
        object.__setattr__(self, "steps", _integer(self.steps, "step count"))
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phase must be finite, got {self.phi}")
        object.__setattr__(self, "beta", _beta(self.N))
        object.__setattr__(self, "j", _floor_step_index(self.N, self.beta))


def _beta(N: int) -> float:
    N = _integer(N, "database size")
    if N < 2:
        raise ValueError(f"database size must be >= 2, got N={N}")
    try:
        return math.asin(N**-0.5)
    except OverflowError:  # N does not fit a float
        raise ValueError(
            f"database size is too large for a float: N has {N.bit_length()} bits"
        ) from None


def _floor_step_index(N: int, beta: float) -> int:
    """Mathematical floor of pi/(4 beta) + 1/2, stable at representation edges.

    The argument is an integer j only when sin^2(pi/(4j - 2)) = 1/N, which
    by Niven's theorem happens for N >= 2 only at N = 4 (j = 2); there
    the double-precision value can straddle 2, so it is returned exactly.
    Any other N whose floor a 1-ulp perturbation would change is past
    double precision and raises ValueError.  That is every N from about
    2**102.7 (the argument at or above 2**51, where one ulp is >= 1/2)
    and a share of N below it that grows as the argument's ulp does:
    about 1 in 40 sampled N at 2**90 and 1 in 3 at 2**100.
    """
    if N == 4:
        return 2
    x = math.pi / (4.0 * beta) + 0.5
    lo = math.floor(math.nextafter(x, -math.inf))
    hi = math.floor(math.nextafter(x, math.inf))
    if lo != hi:
        raise ValueError(
            f"database size is past double precision: N has {N.bit_length()} "
            f"bits and the floor of pi/(4 beta) + 1/2 changes within 1 ulp; "
            f"every N from about {_MAX_RESOLVABLE_N:.2e} "
            f"(2**{math.log2(_MAX_RESOLVABLE_N):.1f}) is past it"
        )
    return math.floor(x)


def matched_phase(N: int, steps: int) -> float:
    """Phase that lands exactly on the marked state after ``steps`` iterations."""
    arg = math.sin(math.pi / (4 * steps + 2)) / math.sin(_beta(N))
    if arg > 1.0:
        raise ValueError(
            f"no matched phase: {steps} steps is below the minimum for N={N}"
        )
    return 2.0 * math.asin(arg)


def deterministic_schedule(N: int) -> SearchSchedule:
    """Schedule reaching unit marked-state population at a finite step count."""
    beta = _beta(N)
    j = _floor_step_index(N, beta)
    half_pi = 0.5 * math.pi
    if abs((2 * j + 1) * beta - half_pi) <= abs((2 * j - 1) * beta - half_pi):
        steps = j
    else:
        steps = j + 1
    return SearchSchedule(N, matched_phase(N, steps), steps, "deterministic")


def canonical_schedule(N: int) -> SearchSchedule:
    """phi = pi with the usual round((pi/4) sqrt(N)) iterations (min 1)."""
    _beta(N)  # refuses N < 2, or an N too large for a float, before sqrt does
    steps = max(1, round(0.25 * math.pi * math.sqrt(N)))
    return SearchSchedule(N, math.pi, steps, "canonical_pi")


def custom_schedule(N: int, phi: float, steps: int) -> SearchSchedule:
    """User-supplied phase and step count (at most MAX_STEPS); no optimality claims."""
    schedule = SearchSchedule(N, float(phi), steps, "custom")
    if schedule.steps > MAX_STEPS:
        raise ValueError(f"step count must be <= {MAX_STEPS}, got {schedule.steps}")
    return schedule

