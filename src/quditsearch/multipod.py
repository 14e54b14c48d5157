"""Pulse-level dynamics of a multipod and reflection extraction.

A multipod couples the d qudit states |0>..|d-1> to one ancilla |c>
with simultaneous fields of Rabi amplitudes Omega_k and a common
detuning Delta on the ancilla.  In the Morris-Shore picture only the
bright superposition of qudit states, u = Omega / |Omega|, talks to |c>
with the RMS Rabi frequency |Omega|; the d-1 dark states, which span the
complement of u, are frozen.  When the RMS pulse area is 2(2l+1)pi the
population returns to the qudit manifold and the qudit block of the
propagator is the generalized reflection M(chi, phi) with chi = u.  For
a sech pulse of area 2 pi the acquired phase is phi = pi - 2 arctan(Delta T).

The propagator is obtained by direct numerical integration of the full
(d+1)-level Schrodinger equation (no Morris-Shore shortcut), so the
reflection fit is an independent check of the reduction.  Both pulse
shapes are even in time and, after a diagonal phase gauge D, the
Hamiltonian is real symmetric; so one solve over the half window [0, 20]
gives V, and the whole pulse is U = D V V^T D^dag (see ``propagate``).
That solve runs in the interaction picture of the detuning term: the
ancilla's free phase exp(-i Delta T t) is left out of the integrated
equation and restored exactly at t = 20, so the integrator no longer
follows it after the envelope has died; up to |Delta T| = 1 a detuned
pulse costs about what a resonant one does.  The gauge and the frame only
rephase basis states: they reduce neither the dimension nor the number
of coupled levels.

Hamiltonian convention (hbar = 1, rotating frame):

    H(t) = (1/2) Omega_rms(t) sum_k (u_k |k><c| + h.c.) + Delta |c><c|

with u the unit coupling vector and Omega_rms(t) = peak * f(t/T) scaled
so the area A = integral Omega_rms dt.  Time runs in pulse widths T over
the fixed window [-20, 20], so the detuning enters as the number Delta T.
The +Delta sign on the ancilla makes the sech phase decrease with Delta T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fgates import FGate, coupling_design, householder_f


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.

    Importing scipy.integrate takes most of a fresh interpreter's import
    time, and only the pulse commands integrate.  ``propagate`` looks this
    name up in the module globals, so it can be wrapped from outside.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# shape -> (unit-peak envelope of dimensionless time, its integral); every
# envelope is even in t, which propagate's half-window solve relies on
_ENVELOPES = {
    "sech": (lambda t: 1.0 / math.cosh(t), math.pi),
    "gaussian": (lambda t: math.exp(-t * t), math.sqrt(math.pi)),
}
PULSE_SHAPES = tuple(_ENVELOPES)

LEAKAGE_LIMIT = 1e-4
# input bounds that keep one pulse to about a second of integration; at
# |Delta T| = 100 the sech phase is already within 0.02 rad of 0
MAX_DETUNING = 100.0
MAX_RMS_AREA = 1000.0
T_MAX = 20.0  # window half-width in pulse widths: sech tail below 5e-9 of peak
RTOL, ATOL = 3e-12, 3e-14  # the integrator's relative and absolute tolerances


class LeakageError(RuntimeError):
    """Pulse left population on the ancilla; no reflection to extract."""


@dataclass(frozen=True)
class PulseJob:
    """One multipod pulse: coupling pattern, detuning, shape, and RMS area.

    ``detuning`` is the dimensionless product Delta T of the ancilla
    detuning and the pulse width T.  Every pulse spans the fixed window
    [-T_MAX, T_MAX] = [-20, 20] in units of T.  |detuning| is at most
    MAX_DETUNING = 100 and |rms_area| at most MAX_RMS_AREA = 1000.
    """

    couplings: np.ndarray
    detuning: float
    rms_area: float
    shape: str = "sech"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "couplings", np.asarray(self.couplings, dtype=np.complex128)
        )
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"pulse shape {self.shape!r} not in {PULSE_SHAPES}")
        scalars = (self.detuning, self.rms_area)
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(self.couplings))):
            raise ValueError("pulse detuning, area and couplings must be finite")
        if abs(self.detuning) > MAX_DETUNING:
            raise ValueError(
                f"|detuning| {abs(self.detuning):g} exceeds the limit {MAX_DETUNING:g}"
            )
        if abs(self.rms_area) > MAX_RMS_AREA:
            raise ValueError(
                f"|rms_area| {abs(self.rms_area):g} exceeds the limit {MAX_RMS_AREA:g}"
            )
        if np.linalg.norm(self.couplings) == 0.0:
            raise ValueError("all couplings are zero")

    @property
    def d(self) -> int:
        return self.couplings.size


@dataclass(frozen=True)
class Propagator:
    """(d+1) x (d+1) propagator; basis order: qudit states 0..d-1, then ancilla."""

    matrix: np.ndarray

    @property
    def qudit_block(self) -> np.ndarray:
        return self.matrix[:-1, :-1]


def propagate(job: PulseJob) -> Propagator:
    """Integrate the multipod Schrodinger equation over the pulse.

    Works in dimensionless time t/T over [-T_MAX, T_MAX], where the
    Hamiltonian is (A / (2 I_f)) f(t) K + (Delta T) |c><c| with K the
    coupling block and I_f the envelope integral.  Only the half window
    [0, T_MAX] is integrated; time-reversal symmetry gives the other half.

    The gauge D = diag(u_k / |u_k|, 1) (any unit phase serves where
    u_k = 0) turns K into the real symmetric K_r = D^dag K D, with |u| on
    the coupling row and column, and leaves |c><c| alone.  The gauged
    Hamiltonian H_r(t) is real and even in t, so U_r(-t, 0) =
    conj(U_r(t, 0)).  With V = U_r(T_MAX, 0) the backward half is
    U_r(0, -T_MAX) = conj(V)^-1 = V^T, and

        U = D V V^T D^dag.

    V is computed in the interaction picture of H0 = (Delta T) |c><c|.
    With V = exp(-i H0 T_MAX) W and coef = A / (2 I_f),

        dW/dt = -i coef f(t) (e^{i Delta T t} |c><|u|| + h.c.) W,  W(0) = 1,

    which holds only the coupling, rotating at the detuning.  In the lab
    frame the adaptive solver must follow the ancilla's free phase
    exp(-i Delta T t) to t = T_MAX, long after the envelope has died, so
    its work grew linearly with Delta T; here that phase is restored
    exactly by multiplying the ancilla row of W by exp(-i Delta T T_MAX).
    The frame changes how V is computed, not what it is: V is still
    U_r(T_MAX, 0) of the real, even H_r, so the identity above holds as
    before.  The right-hand side splits the rotating coupling into
    cos(Delta T t) and sin(Delta T t) parts, two fixed matrices with one
    real scalar each; at Delta T = 0 it is the lab-frame coupling alone.

    W is one matrix ODE integrated in a single adaptive 8th-order
    Runge-Kutta solve at the fixed tolerances RTOL = 3e-12 and
    ATOL = 3e-14.  Its error norm averages over all (d+1)^2 entries, hence
    tolerances tighter than a per-column solve would need for the same
    entry error.  The full (d+1)-level equation is still integrated: the
    gauge rephases the basis states by constants and the frame rephases
    the ancilla along the pulse, so this is not a Morris-Shore reduction
    and the reflection fit still checks it.
    """
    d = job.d
    dim = d + 1
    unit = job.couplings / np.linalg.norm(job.couplings)
    gauge = np.exp(1j * np.angle(np.append(unit, 1.0)))

    f, integral = _ENVELOPES[job.shape]
    coef = job.rms_area / (2.0 * integral)
    delta_t = job.detuning
    coupling = np.zeros((dim, dim), dtype=np.complex128)  # -i coef K_r
    coupling[:d, d] = coupling[d, :d] = -1j * coef * np.abs(unit)
    quadrature = np.zeros((dim, dim), dtype=np.complex128)  # coef (|c><|u|| - h.c.)
    quadrature[d, :d] = coef * np.abs(unit)
    quadrature[:d, d] = -quadrature[d, :d]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        envelope, angle = f(t), delta_t * t
        in_phase = envelope * math.cos(angle)
        out_of_phase = envelope * math.sin(angle)
        return ((in_phase * coupling + out_of_phase * quadrature) @ y.reshape(dim, dim)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, T_MAX),
        np.eye(dim, dtype=np.complex128).ravel(),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
    )
    if not sol.success:
        raise RuntimeError(
            f"propagator failed to converge: {sol.message} "
            f"({sol.nfev} right-hand-side evaluations)"
        )
    half = sol.y[:, -1].reshape(dim, dim)
    half[d] *= complex(math.cos(delta_t * T_MAX), -math.sin(delta_t * T_MAX))
    return Propagator(gauge[:, None] * (half @ half.T) * gauge.conj())


def wrap_phase(x: float) -> float:
    """Reduce an angle to (-pi, pi], mapping the -pi branch edge to +pi."""
    y = float(np.angle(np.exp(1j * x)))
    if y <= -math.pi + 1e-12:
        y = math.pi
    return y


@dataclass(frozen=True)
class ReflectionFit:
    """Best fit of a qudit block to e^{i gamma} M(u, phase), u the unit couplings."""

    phase: float
    residual: float
    leakage: float


def extract_reflection(u: Propagator, couplings: np.ndarray) -> ReflectionFit:
    """Fit the qudit block of a propagator to a generalized reflection.

    The axis is the normalized coupling vector; the global phase gamma is
    read off the dark sector, the reflection phase from the axis
    expectation value.  Rejects the fit if the leaked ancilla amplitude
    (2-norm of the ancilla row, which bounds every per-column |<c|U|k>|)
    is at or above 1e-4: the pulse did not return the population, e.g.
    the area is not of the form 2(2l+1)pi or the window is too short.
    """
    couplings = np.asarray(couplings, dtype=np.complex128)
    d = couplings.size
    matrix = u.matrix
    if matrix.shape != (d + 1, d + 1):
        raise ValueError(
            f"propagator has shape {matrix.shape}, expected ({d + 1}, {d + 1})"
        )
    leakage = float(np.linalg.norm(matrix[d, :d]))
    if leakage >= LEAKAGE_LIMIT:
        raise LeakageError(
            f"ancilla leakage {leakage:.3e} >= {LEAKAGE_LIMIT:.0e}; pulse area is "
            f"not a qudit-manifold return (not 2(2l+1)pi) or the window is too short"
        )
    block = matrix[:d, :d]
    axis = couplings / np.linalg.norm(couplings)
    projector = np.outer(axis, axis.conj())
    gamma = float(np.angle(np.trace((np.eye(d) - projector) @ block)))
    phase = wrap_phase(float(np.angle(axis.conj() @ block @ axis)) - gamma)
    model = np.eye(d) + (np.exp(1j * phase) - 1.0) * projector
    residual = float(np.max(np.abs(block - np.exp(1j * gamma) * model)))
    return ReflectionFit(phase, residual, leakage)


def analytic_sech_phase(delta_t: float) -> float:
    """Reflection phase of a 2 pi sech pulse: pi - 2 arctan(Delta T)."""
    return math.pi - 2.0 * math.atan(delta_t)


@dataclass(frozen=True)
class PulseGateReport:
    """Comparison of a pulse-synthesized gate against its closed form."""

    deviation: float
    passed: bool
    gate: FGate
    fit: ReflectionFit


def verify_f_pulse(d: int) -> PulseGateReport:
    """Synthesize F with one resonant 2 pi sech pulse and check it.

    Propagates the multipod with the coupling design for dimension d at
    zero detuning, extracts the qudit block, and compares it (modulo a
    single global phase) against the closed-form Householder F: it
    passes if every entry is within 1e-5.
    """
    couplings = coupling_design(d)
    job = PulseJob(couplings=couplings, detuning=0.0, rms_area=2.0 * math.pi)
    prop = propagate(job)
    fit = extract_reflection(prop, couplings)
    block = prop.qudit_block
    target = householder_f(d).matrix
    gamma = np.angle(np.trace(target.conj().T @ block))
    aligned = block * np.exp(-1j * gamma)
    deviation = float(np.max(np.abs(aligned - target)))
    gate = FGate(aligned)
    return PulseGateReport(deviation, deviation < 1e-5, gate, fit)
