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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Longest run custom_schedule accepts.  run_search keeps one Python float per
# step, about 32 MB at this cap, and writes nothing until the last step.
MAX_STEPS = 10**6

# pi/(4 beta) + 1/2 grows like (pi/4) sqrt(N).  From 2**51 up its doubles are
# spaced by 1/2 or more, so a 1-ulp change moves the floor of every one of
# them; that first happens near this N.
_MAX_RESOLVABLE_N = (2**53 / math.pi) ** 2


@dataclass(frozen=True)
class SearchSchedule:
    """Iteration plan: rotation half-angle beta, a finite phase phi, steps >= 0."""

    N: int
    beta: float
    j: int
    phi: float
    steps: int
    mode: str

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phase must be finite, got {self.phi}")


def _beta(N: int) -> float:
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
    Any other N whose floor a 1-ulp perturbation would change raises
    RuntimeError; an N past double precision (the argument at or above
    2**51, where one ulp is >= 1/2 and every value straddles) raises
    ValueError.
    """
    if N == 4:
        return 2
    x = math.pi / (4.0 * beta) + 0.5
    if x >= 2.0**51:
        raise ValueError(
            f"database size is past double precision: N has {N.bit_length()} "
            f"bits, the largest N whose step index resolves is about "
            f"{_MAX_RESOLVABLE_N:.2e} (2**{math.log2(_MAX_RESOLVABLE_N):.1f})"
        )
    lo = math.floor(math.nextafter(x, -math.inf))
    hi = math.floor(math.nextafter(x, math.inf))
    if lo != hi:
        raise RuntimeError(
            f"floor of pi/(4 beta) + 1/2 is unstable to 1 ulp at N={N}"
        )
    return math.floor(x)


def matched_phase(N: int, steps: int) -> float:
    """Phase that lands exactly on the marked state after ``steps`` iterations."""
    beta = _beta(N)
    arg = math.sin(math.pi / (4 * steps + 2)) / math.sin(beta)
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
    phi = matched_phase(N, steps)
    return SearchSchedule(N, beta, j, phi, steps, "deterministic")


def canonical_schedule(N: int) -> SearchSchedule:
    """phi = pi with the usual round((pi/4) sqrt(N)) iterations (min 1)."""
    beta = _beta(N)
    j = _floor_step_index(N, beta)
    steps = max(1, round(0.25 * math.pi * math.sqrt(N)))
    return SearchSchedule(N, beta, j, math.pi, steps, "canonical_pi")


def custom_schedule(N: int, phi: float, steps: int) -> SearchSchedule:
    """User-supplied phase and step count (at most MAX_STEPS); no optimality claims."""
    steps = int(steps)
    if steps > MAX_STEPS:
        raise ValueError(f"step count must be <= {MAX_STEPS}, got {steps}")
    beta = _beta(N)
    j = _floor_step_index(N, beta)
    return SearchSchedule(N, beta, j, float(phi), steps, "custom")


def predicted_population(N: int, k: int, phi: float) -> float:
    """Marked-state population after k phase-matched steps, from the 2D model.

    For phi = pi this is the closed form sin^2((2k+1) beta).  Otherwise the
    Grover operator restricted to span{|marked>, |superposition>} (overlap
    1/sqrt(N)) is iterated exactly as a 2x2 complex matrix.
    """
    beta = _beta(N)
    if k < 0:
        raise ValueError(f"step count must be >= 0, got {k}")
    if phi == math.pi:
        return math.sin((2 * k + 1) * beta) ** 2
    overlap = N**-0.5
    s = np.array([overlap, math.sqrt(1.0 - overlap**2)], dtype=np.complex128)
    phase = np.exp(1j * phi)
    m_marked = np.diag([phase, 1.0]).astype(np.complex128)
    m_super = np.eye(2, dtype=np.complex128) + (phase - 1.0) * np.outer(s, s.conj())
    g = m_super @ m_marked
    v = s.copy()
    for _ in range(k):
        v = g @ v
    return float(abs(v[0]) ** 2)
