"""Pulse-level dynamics of a multipod and reflection extraction.

A multipod couples the d qudit states |0>..|d-1> to one ancilla |c>
with simultaneous fields of Rabi amplitudes Omega_k and a common
detuning Delta on the ancilla.  In the Morris-Shore picture only the
bright superposition of qudit states talks to |c>, with the RMS Rabi
frequency; the d-1 dark states are frozen.  When the RMS pulse area is
2(2l+1)pi the population returns to the qudit manifold and the qudit
block of the propagator is the generalized reflection M(chi, phi) with
chi the normalized coupling vector.  For a sech pulse of area 2 pi the
acquired phase is phi = pi - 2 arctan(Delta T).

The propagator is obtained by direct numerical integration of the full
(d+1)-level Schrodinger equation (no Morris-Shore shortcut), so the
reflection fit is an independent check of the reduction.

Hamiltonian convention (hbar = 1, rotating frame):

    H(t) = (1/2) Omega_rms(t) sum_k (u_k |k><c| + h.c.) + Delta |c><c|

with u the unit coupling vector and Omega_rms(t) = peak * f(t) scaled
so the area A = integral Omega_rms dt.  The +Delta sign on the ancilla
makes the sech phase decrease with increasing Delta T.
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


class LeakageError(RuntimeError):
    """Pulse left population on the ancilla; no reflection to extract."""


@dataclass(frozen=True)
class MorrisShoreBasis:
    """Bright/dark decomposition of the qudit manifold for given couplings."""

    bright: np.ndarray  # unit vector, length d
    dark: np.ndarray  # d x (d-1), orthonormal columns orthogonal to bright
    rms_rabi: float


def morris_shore(couplings: np.ndarray) -> MorrisShoreBasis:
    """Reduce a multipod to one bright state plus d-1 dark states.

    The bright state carries conjugate coupling weights; the dark columns
    complete it to an orthonormal basis of the qudit manifold.
    """
    couplings = np.asarray(couplings, dtype=np.complex128)
    if couplings.ndim != 1 or couplings.size < 1:
        raise ValueError("couplings must be a 1-D array")
    rms = float(np.linalg.norm(couplings))
    if rms == 0.0:
        raise ValueError("all couplings are zero; no bright state exists")
    bright = couplings.conj() / rms
    d = couplings.size
    # QR of [bright | e_0 .. e_{d-2}]: column 0 spans bright, the rest
    # form a deterministic orthonormal completion.
    q, _ = np.linalg.qr(np.column_stack([bright, np.eye(d, d - 1)]))
    phase = np.vdot(q[:, 0], bright)
    dark = q[:, 1:].copy()
    if abs(abs(phase) - 1.0) > 1e-12:
        raise AssertionError("QR completion failed to align with the bright state")
    return MorrisShoreBasis(bright, dark, rms)


@dataclass(frozen=True)
class PulseJob:
    """One multipod pulse: coupling pattern, detuning, shape, and RMS area.

    ``detuning`` is in units of 1/width, so the physics depends on the
    products ``rms_area`` and ``detuning * width`` only.  The window
    [-t_max, t_max] is in units of the width; t_max >= 20 keeps the sech
    tail truncation below 5e-9 of the peak.
    """

    couplings: np.ndarray
    detuning: float
    rms_area: float
    width: float = 1.0
    shape: str = "sech"
    t_max: float = 20.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "couplings", np.asarray(self.couplings, dtype=np.complex128)
        )
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"pulse shape {self.shape!r} not in {PULSE_SHAPES}")
        scalars = (self.detuning, self.rms_area, self.width)
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(self.couplings))):
            raise ValueError("pulse detuning, area, width and couplings must be finite")
        if self.width <= 0:
            raise ValueError("pulse width must be positive")
        if self.t_max < 20.0:
            raise ValueError("integration window t_max must be >= 20 pulse widths")
        if np.linalg.norm(self.couplings) == 0.0:
            raise ValueError("all couplings are zero")

    @property
    def d(self) -> int:
        return self.couplings.size

    @property
    def peak_rms_rabi(self) -> float:
        """Peak RMS Rabi frequency, area / (envelope integral * width)."""
        return self.rms_area / (_ENVELOPES[self.shape][1] * self.width)


@dataclass(frozen=True)
class Propagator:
    """(d+1) x (d+1) propagator; basis order: qudit states 0..d-1, then ancilla."""

    matrix: np.ndarray
    job: PulseJob

    @property
    def qudit_block(self) -> np.ndarray:
        d = self.job.d
        return self.matrix[:d, :d]

    @property
    def ancilla_leakage(self) -> float:
        """Total amplitude leaked to the ancilla from the qudit manifold.

        The 2-norm of the ancilla row over qudit columns; it equals the
        bright-state transition amplitude and bounds every per-column
        |<c|U|k>|.
        """
        d = self.job.d
        return float(np.linalg.norm(self.matrix[d, :d]))


def propagate(job: PulseJob, rtol: float = 3e-12, atol: float = 3e-14) -> Propagator:
    """Integrate the multipod Schrodinger equation over the pulse.

    Works in dimensionless time t/width, where the Hamiltonian is
    (A / (2 I_f)) f(t) K + (Delta T) |c><c| with K the coupling block and
    I_f the envelope integral.  The whole propagator is one matrix ODE,
    dU/dt = -i H(t) U from U = 1, integrated in a single adaptive
    8th-order Runge-Kutta solve.  Its error norm averages over all
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
    ancilla[d, d] = job.detuning * job.width

    f, integral = _ENVELOPES[job.shape]
    coef = job.rms_area / (2.0 * integral)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        h = (coef * f(t)) * coupling_block + ancilla
        return (-1j * (h @ y.reshape(dim, dim))).ravel()

    sol = solve_ivp(
        rhs,
        (-job.t_max, job.t_max),
        np.eye(dim, dtype=np.complex128).ravel(),
        method="DOP853",
        t_eval=(job.t_max,),
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(
            f"propagator failed to converge: {sol.message} "
            f"({sol.nfev} right-hand-side evaluations)"
        )
    return Propagator(sol.y[:, -1].reshape(dim, dim), job)


def wrap_phase(x: float) -> float:
    """Reduce an angle to (-pi, pi], mapping the -pi branch edge to +pi."""
    y = float(np.angle(np.exp(1j * x)))
    if y <= -math.pi + 1e-12:
        y = math.pi
    return y


@dataclass(frozen=True)
class ReflectionFit:
    """Best fit of a qudit block to e^{i gamma} M(axis, phase)."""

    axis: np.ndarray
    phase: float
    global_phase: float
    residual: float
    leakage: float


def extract_reflection(
    u: Propagator | np.ndarray, couplings: np.ndarray
) -> ReflectionFit:
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
    if isinstance(u, Propagator):
        matrix = u.matrix
    else:
        matrix = np.asarray(u, dtype=np.complex128)
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
    return ReflectionFit(axis, phase, gamma, residual, leakage)


def analytic_sech_phase(delta_t: float) -> float:
    """Reflection phase of a 2 pi sech pulse: pi - 2 arctan(Delta T)."""
    return math.pi - 2.0 * math.atan(delta_t)


@dataclass(frozen=True)
class PulseGateReport:
    """Comparison of a pulse-synthesized gate against its closed form."""

    d: int
    deviation: float
    passed: bool
    gate: FGate
    fit: ReflectionFit


def verify_f_pulse(d: int, tolerance: float = 1e-5) -> PulseGateReport:
    """Synthesize F with one resonant 2 pi sech pulse and check it.

    Propagates the multipod with the coupling design for dimension d at
    zero detuning, extracts the qudit block, and compares it (modulo a
    single global phase) against the closed-form Householder F.
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
    gate = FGate(aligned, "custom")
    return PulseGateReport(d, deviation, deviation < tolerance, gate, fit)
