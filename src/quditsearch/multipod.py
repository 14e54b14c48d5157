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
reflection fit is an independent check of the reduction.

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


# shape -> (unit-peak envelope of dimensionless time, its integral)
_ENVELOPES = {
    "sech": (lambda t: 1.0 / np.cosh(t), math.pi),
    "gaussian": (lambda t: np.exp(-t * t), math.sqrt(math.pi)),
}
PULSE_SHAPES = tuple(_ENVELOPES)

LEAKAGE_LIMIT = 1e-4
T_MAX = 20.0  # window half-width in pulse widths: sech tail below 5e-9 of peak
RTOL, ATOL = 3e-12, 3e-14  # the integrator's relative and absolute tolerances


class LeakageError(RuntimeError):
    """Pulse left population on the ancilla; no reflection to extract."""


@dataclass(frozen=True)
class PulseJob:
    """One multipod pulse: coupling pattern, detuning, shape, and RMS area.

    ``detuning`` is the dimensionless product Delta T of the ancilla
    detuning and the pulse width T.  Every pulse is integrated over the
    fixed window [-T_MAX, T_MAX] = [-20, 20] in units of T.
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
    coupling block and I_f the envelope integral.  The whole propagator
    is one matrix ODE, dU/dt = -i H(t) U from U = 1, integrated in a
    single adaptive 8th-order Runge-Kutta solve at the fixed tolerances
    RTOL = 3e-12 and ATOL = 3e-14.  Its error norm averages over all
    (d+1)^2 entries, hence tolerances tighter than a per-column solve
    would need for the same entry error.
    """
    d = job.d
    dim = d + 1
    unit = job.couplings / np.linalg.norm(job.couplings)
    coupling_block = np.zeros((dim, dim), dtype=np.complex128)
    coupling_block[:d, d] = unit
    coupling_block[d, :d] = unit.conj()
    ancilla = np.zeros((dim, dim), dtype=np.complex128)
    ancilla[d, d] = job.detuning

    f, integral = _ENVELOPES[job.shape]
    coef = job.rms_area / (2.0 * integral)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        h = (coef * f(t)) * coupling_block + ancilla
        return (-1j * (h @ y.reshape(dim, dim))).ravel()

    sol = solve_ivp(
        rhs,
        (-T_MAX, T_MAX),
        np.eye(dim, dtype=np.complex128).ravel(),
        method="DOP853",
        t_eval=(T_MAX,),
        rtol=RTOL,
        atol=ATOL,
    )
    if not sol.success:
        raise RuntimeError(
            f"propagator failed to converge: {sol.message} "
            f"({sol.nfev} right-hand-side evaluations)"
        )
    return Propagator(sol.y[:, -1].reshape(dim, dim))


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
