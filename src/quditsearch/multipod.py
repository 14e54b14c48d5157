"""Pulse-level dynamics of a multipod and reflection extraction.

A multipod couples the d qudit states |0>..|d-1> to one ancilla |c>
with simultaneous fields of Rabi amplitudes Omega_k and a common
detuning Delta on the ancilla.  In the Morris-Shore picture only the
bright superposition of qudit states, u = Omega / |Omega|, talks to |c>
with the RMS Rabi frequency |Omega|; the d-1 dark states, which span the
complement of u, are frozen.  When the RMS pulse area of a sech pulse is
a multiple 2k pi of 2 pi, the population returns to the qudit manifold
and the qudit block of the propagator is the generalized reflection
M(chi, phi) with chi = u.  The acquired phase is
phi = k pi - 2 sum_{j=1..k} arctan(Delta T / (2j - 1)), which is
pi - 2 arctan(Delta T) at area 2 pi (``analytic_sech_phase``).

The propagator is obtained by direct numerical integration of the full
(d+1)-level Schrodinger equation (no Morris-Shore shortcut), so the
reflection fit is an independent check of the reduction.  Both pulse
shapes are even in time and, after a diagonal phase gauge D, H is
symmetric: all the kernel needs (H need be neither real nor Hermitian).
So one propagator over the half window [0, 20] gives V, and the whole
pulse is U = D V V^T D^dag (see ``propagate``).  V is a product of
order-6 Magnus exponentials on a grid graded by the envelope, of 128
steps for a resonant 2 pi sech pulse, 256 at Delta T = 2 and 512 at
Delta T = 10; the grid doubles until two grids agree to the tolerance.
The gauged Hamiltonian is f(t) C + (Delta T)|c><c| with C fixed, so each
step's generator is a combination, with scalar coefficients of the step,
of 11 commutators of the two fixed matrices built once per pulse; each
grid's table of coefficients is memoised per (shape, steps).  Complex
matrices are held in real arithmetic.  The grid is exponentiated and
multiplied in place in blocks of the largest power of two of steps whose
generators fit _BLOCK_BYTES, which bounds the memory; each block takes
its own Taylor degree.  The gauge only rephases basis states: it reduces
neither the dimension nor the number of coupled levels.

Hamiltonian convention (hbar = 1, rotating frame):

    H(t) = (1/2) Omega_rms(t) sum_k (u_k |k><c| + h.c.) + Delta |c><c|

with u the unit coupling vector and Omega_rms(t) = peak * f(t/T) scaled
so the area A = integral Omega_rms dt.  Time runs in pulse widths T over
the fixed window [-20, 20], so the detuning enters as the number Delta T.
The +Delta sign on the ancilla makes the sech phase decrease with Delta T.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fgates import FGate, coupling_design, householder_f


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use; nothing here calls it.

    ``propagate`` builds its propagator from Magnus exponentials.  The
    name stays because the traced benchmark (``TRACE_POINTS`` in
    benchmark/run.py) wraps ``quditsearch.multipod.solve_ivp`` by name, and
    a missing name would stop every traced run; the import stays lazy, so
    it costs nothing.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# shape -> (unit-peak envelope of dimensionless time, elementwise on arrays,
# its integral, and the base and area coefficient of propagate's first-grid
# guess); every envelope is even in t, which propagate's half-window product
# relies on.  A 2 pi sech pulse at Delta T = 0.5 is accepted at 256 steps
# and a weak one at Delta T = -0.92, area 3.65 at 128, at a larger A Delta T;
# the area tells them apart.  For a Gaussian an area term would start pulses
# of Delta T 1.8, area 7.9 above the 128 steps they are accepted at.
_ENVELOPES = {
    "sech": (lambda t: 1.0 / np.cosh(t), math.pi, (192.0, 1.25)),
    "gaussian": (lambda t: np.exp(-t * t), math.sqrt(math.pi), (128.0, 0.0)),
}
PULSE_SHAPES = tuple(_ENVELOPES)

LEAKAGE_LIMIT = 1e-4
# input bounds that keep one pulse to about a second of work; at
# |Delta T| = 100 the sech phase is already within 0.02 rad of 0.  At that
# corner (area 1000, d = 16) the half window takes 8192 Magnus steps.
MAX_DETUNING = 100.0
MAX_RMS_AREA = 1000.0
MAX_PULSE_D = 16
T_MAX = 20.0  # window half-width in pulse widths: sech tail below 5e-9 of peak
# Accepted estimate |V_M - V_{M/2}| / 63 of the largest entry error of V.
MAGNUS_TOL = 2e-12
# Grid cap: twice the 8192 steps the hardest pulse inside the input bounds needs.
MAX_MAGNUS_STEPS = 2**14
_BLOCK_BYTES = 384 << 10  # generators exponentiated at once: sets the block, bounds the memory
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)


class LeakageError(RuntimeError):
    """Pulse left population on the ancilla; no reflection to extract."""


@dataclass(frozen=True)
class PulseJob:
    """One multipod pulse: coupling pattern, detuning, shape, and RMS area.

    ``detuning`` is the dimensionless product Delta T of the ancilla
    detuning and the pulse width T.  Every pulse spans the fixed window
    [-T_MAX, T_MAX] = [-20, 20] in units of T.  |detuning| is at most
    MAX_DETUNING = 100, |rms_area| at most MAX_RMS_AREA = 1000, and the
    number of qudit levels d at most MAX_PULSE_D = 16; both numbers are real floats.
    """

    couplings: np.ndarray
    detuning: float
    rms_area: float
    shape: str = "sech"

    def __post_init__(self) -> None:
        object.__setattr__(self, "couplings", _checked_couplings(self.couplings))
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"pulse shape {self.shape!r} not in {PULSE_SHAPES}")
        object.__setattr__(self, "detuning", _bounded(self.detuning, "detuning", MAX_DETUNING))
        object.__setattr__(self, "rms_area", _bounded(self.rms_area, "rms_area", MAX_RMS_AREA))
        if self.d > MAX_PULSE_D:
            raise ValueError(f"d {self.d} exceeds the limit {MAX_PULSE_D}")

    @property
    def d(self) -> int:
        return self.couplings.size


def _bounded(value, name: str, limit: float) -> float:
    """value as a float; ValueError naming ``name`` unless a finite real within limit."""
    if not (isinstance(value, numbers.Real) and -math.inf < value < math.inf):
        raise ValueError(f"pulse {name} must be a finite real number, got {value!r}")
    if abs(value) > limit:
        raise ValueError(f"|{name}| {abs(value):g} exceeds the limit {limit:g}")
    return float(value)


def _checked_couplings(couplings) -> np.ndarray:
    """couplings as a complex array; ValueError unless 1-D, finite, not all
    zero, and of a 2-norm that is a positive finite double, since the pulse
    couples along couplings / norm."""
    couplings = np.asarray(couplings, dtype=np.complex128)
    if couplings.ndim != 1:
        raise ValueError(f"couplings must be 1-D, got shape {couplings.shape}")
    if not np.all(np.isfinite(couplings)):
        raise ValueError("couplings must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(couplings)
    if not 0.0 < norm < math.inf:
        if not couplings.any():
            raise ValueError("all couplings are zero")
        raise ValueError(
            "the couplings' 2-norm is not a positive finite double (it "
            f"{'overflows to inf' if norm else 'underflows to 0'}); rescale them"
        )
    return couplings


@dataclass(frozen=True)
class Propagator:
    """(d+1) x (d+1) propagator; basis order: qudit states 0..d-1, then ancilla.

    ``steps`` is the number of Magnus steps over the half window and
    ``error_estimate`` the accepted truncation estimate |V_M - V_{M/2}| / 63
    of V's largest entry error; both are 0 for a matrix that was not
    integrated.  It is no bound: past about 2048 steps it reads the
    rounding floor as truncation error, and an audit of 192 jobs of the
    input box found it below V's true difference from the 16384-step V in
    127, by up to 160x at Delta T = 100.
    """

    matrix: np.ndarray
    steps: int = 0
    error_estimate: float = 0.0

    @property
    def qudit_block(self) -> np.ndarray:
        return self.matrix[:-1, :-1]


def _magnus_grid(f, steps: int) -> np.ndarray:
    """steps + 1 times from 0 to T_MAX whose density follows f^(1/7) + 0.02.

    An order-6 step's local error scales as h^7 f, so this spacing spreads
    it evenly; the floor keeps the tail's steps finite.  Grids of M and M/2
    steps share every other time.
    """
    fine = np.linspace(0.0, T_MAX, 2049)
    density = f(fine) ** (1.0 / 7.0) + 0.02
    mass = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    return np.interp(np.linspace(0.0, mass[-1], steps + 1), mass, fine)


@functools.lru_cache(maxsize=None)
def _grid_coefficients(shape: str, steps: int) -> np.ndarray:
    """Read-only (steps, 11) table: each step's coefficients of the commutator basis.

    A pure function of (shape, steps): propagate asks only for powers of two
    from 64 to MAX_MAGNUS_STEPS, so the cache holds at most 2 x 9 tables,
    about 6 MiB in all.  The coefficients are those of ``_magnus_generators``,
    from the step widths h and the envelope f1, f2, f3 at each step's three
    Gauss nodes.
    """
    envelope = _ENVELOPES[shape][0]
    times = _magnus_grid(envelope, steps)
    start = times[:-1]
    h = times[1:] - start
    f1, f2, f3 = envelope(start[:, None] + h[:, None] * _GAUSS_NODES).T
    p = h * f2
    q = (math.sqrt(15.0) / 3.0) * h * (f3 - f1)
    r = (10.0 / 3.0) * h * (f3 - 2.0 * f2 + f1)
    hq, hhq = h * q, h * h * q
    u = (20.0 * p + r) / 14400.0
    table = np.stack([
        # anti: K, [C, S1], [C, S2], [D, S1], [D, S2]
        hq / 12.0, u * p * hq, u * hhq, p * hhq / 720.0, h * hhq / 720.0,
        # sym: C, D, S1, S2, [K, S1], [K, S2]
        p + r / 12.0, h, (hq * q - 480.0 * h * r * u) / 240.0, -h * h * r / 360.0,
        -p * hhq * q / 14400.0, -h * hhq * q / 14400.0,
    ], axis=-1)
    table.flags.writeable = False
    return table


# A complex matrix z = x + iy is held "stacked" as the real (2n, n) array
# [x; y], or as its real form [[x, -y], [y, x]], which multiplies stacked
# matrices: real_form(a) @ stacked(b) = stacked(a b).  The stacked form is
# the real form's first n columns.


def _real_form(stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the real forms of a stack of stacked matrices into out; returns out."""
    n = stacked.shape[-1]
    out[..., :n] = stacked
    np.negative(stacked[..., n:, :], out=out[..., :n, n:])
    out[..., n:, n:] = stacked[..., :n, :]
    return out


def _commutator_basis(coupling: np.ndarray, detuning: np.ndarray) -> np.ndarray:
    """The 11 fixed matrices every order-6 Magnus generator of one pulse combines.

    With H(t) = f(t) C + D, C and D any complex symmetric matrices (the
    gauged coupling block and the detuning term), write K = [D, C],
    S1 = [C, K] and S2 = [D, K].  Every commutator of the scheme in
    ``_magnus_generators`` is a combination of the commutators of an even
    number of C's and D's, K, [C, S1], [C, S2], [D, S1], [D, S2], and of an
    odd number, C, D, S1, S2, [K, S1], [K, S2].  Each is returned as the
    real form of its share of the generator, itself for an even one and
    -1j times itself for an odd one, shape (11, 2n, 2n).
    """
    def bracket(x, y):  # of stacks too, broadcast
        return x @ y - y @ x

    c, d = coupling, detuning
    n = len(c)
    k = bracket(d, c)
    s = bracket(np.stack([c, d]), k)  # S1, S2
    outer = bracket(np.stack([c, d, k])[:, None], s)  # [X, Sj] for X = C, D, K
    even = np.concatenate([k[None], outer[:2].reshape(4, n, n)])
    odd = np.concatenate([c[None], d[None], s, outer[2]])
    shares = np.concatenate([even, -1j * odd])
    stacked = np.concatenate([shares.real, shares.imag], axis=-2)
    return _real_form(stacked, np.empty((len(stacked), 2 * n, 2 * n)))


def _magnus_generators(basis: np.ndarray, coefficients: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Real forms of the order-6 Magnus generators of a stack of steps, in out.

    basis is ``_commutator_basis`` of the pulse's C and D, coefficients
    rows of ``_grid_coefficients``.  With A = -iH the scheme is (Blanes,
    Casas & Ros, BIT 40, 434 (2000))

        a1 = h A2,  a2 = (sqrt(15) h / 3)(A3 - A1),  a3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240,

    for a step of width h with H = H1, H2, H3 at its three Gauss nodes.
    D is constant, so with a_i = -i X_i: X1 = p C + h D, X2 = q C and
    X3 = r C, for p = h f2, q = (sqrt(15) h / 3)(f3 - f1) and
    r = (10 h / 3)(f3 - 2 f2 + f1), f1, f2, f3 the envelope at the nodes.
    A commutator of k X's enters Omega times (-i)^k, so for any symmetric
    C and D Omega combines the even commutators and -1j times the odd ones
    with 11 real coefficients per step, and the whole stack is one
    (steps, 11) @ (11, 4 n^2) matmul.
    """
    np.matmul(coefficients, basis.reshape(len(basis), -1), out=out.reshape(len(out), -1))
    return out


def _one_norm(real_form: np.ndarray, scratch: np.ndarray) -> float:
    """Bound on the largest 1-norm of a stack's complex matrices, from their real forms.

    The largest column sum of |x| + |y| over the stacked [x; y], the real
    forms' first n columns; scratch, a (>= count, 2n, n) buffer, takes
    the absolute values.
    """
    n = real_form.shape[-1] // 2
    return float(np.abs(real_form[..., :n], out=scratch[: len(real_form)]).sum(axis=-2).max())


def _expm(real_form: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stacked exponentials of a stack of real forms, by a Horner Taylor series.

    The degree is the lowest whose remainder bound theta^(m+1)/(m+1)! is
    below 2^-53 at the stack's largest 1-norm theta; above theta = 0.5 the
    stack is scaled by 2^-s first and the result squared s times.  The
    input is overwritten: scaled in place, then each squaring's real form.
    The Horner terms alternate between the halves of out, a (2, >= count,
    2n, n) buffer that every block reuses, and the result is a view of it.
    """
    count, n = real_form.shape[0], real_form.shape[-1] // 2
    result, scratch = out[:, :count]
    theta = _one_norm(real_form, result)
    squarings = math.ceil(math.log2(theta / 0.5)) if theta > 0.5 else 0
    if squarings:
        real_form *= 0.5**squarings
        theta *= 0.5**squarings
    degree, term = 1, theta  # term = theta^degree / degree!
    while term * theta / (degree + 1) > 2.0**-53:
        degree += 1
        term *= theta / degree
    coeffs = [1.0 / math.factorial(j) for j in range(degree + 1)]
    diagonal = slice(0, n * n, n + 1)  # the diagonal of x in each flattened [x; y]
    np.multiply(real_form[..., :n], coeffs[degree], out=result)
    result.reshape(count, -1)[:, diagonal] += coeffs[degree - 1]
    for c in reversed(coeffs[: degree - 1]):
        np.matmul(real_form, result, out=scratch)
        result, scratch = scratch, result
        result.reshape(count, -1)[:, diagonal] += c
    for _ in range(squarings):
        np.matmul(_real_form(result, real_form), result, out=scratch)
        result, scratch = scratch, result
    return result


def _ordered_product(stacked: np.ndarray, real_forms: np.ndarray) -> np.ndarray:
    """E_k ... E_2 E_1 of a power-of-two stack of k stacked matrices, by a pairwise tree.

    In place: each level writes a pair's product over its later factor,
    after copying the later factors' real forms into real_forms, a buffer
    of at least k/2 real forms.  The product ends up in stacked[-1].
    """
    stride = 1
    while stride < len(stacked):
        later = stacked[2 * stride - 1 :: 2 * stride]
        earlier = stacked[stride - 1 :: 2 * stride]
        np.matmul(_real_form(later, real_forms[: len(later)]), earlier, out=later)
        stride *= 2
    return stacked[-1]


def _half_window(basis: np.ndarray, shape: str, steps: int) -> np.ndarray:
    """V = U(T_MAX, 0) on the grid of ``steps`` steps, a power of two, one Magnus step each.

    The grid runs in blocks of the largest power of two of steps whose
    generators fit _BLOCK_BYTES, at least 2 and at most ``steps``, so the
    block depends only on d and steps, and V only on the pulse and steps.
    Each block is exponentiated at its own largest 1-norm, multiplied by a
    pairwise tree and folded into V in grid order.  One set of buffers
    serves every block; the generator buffer, free once exponentiated,
    holds the tree's real forms.  Returns the (n, n) complex V.
    """
    table = _grid_coefficients(shape, steps)
    n = basis.shape[-1] // 2
    fit = _BLOCK_BYTES // basis[0].nbytes  # steps whose generators fit the budget
    # at least 2 steps: numpy takes a matrix-vector product for one row, with other bits
    width = min(steps, 1 << max(1, fit.bit_length() - 1))
    # one allocation: two, freed together, get trimmed from glibc's heap and
    # fault in again on every call
    work = np.empty((2 * width, 2 * n, 2 * n))
    generators, exps = work[:width], work[width:].reshape(2, width, 2 * n, n)
    v = np.zeros((2 * n, n))
    v[:n] = np.eye(n)
    for lo in range(0, steps, width):
        gen = _magnus_generators(basis, table[lo : lo + width], generators)
        block = _ordered_product(_expm(gen, exps), gen)
        v = _real_form(block, generators[0]) @ v
    return v[:n] + 1j * v[n:]


def _gauged_terms(job: PulseJob) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gauge's diagonal and the two real symmetric terms of H_r(t).

    H_r(t) = f(t) C + (Delta T) |c><c| with C = (A / (2 I_f)) K_r the
    gauged coupling block; returns (gauge, C, (Delta T) |c><c|).
    """
    d = job.d
    unit = job.couplings / np.linalg.norm(job.couplings)
    gauge = np.exp(1j * np.angle(np.append(unit, 1.0)))
    coupling = np.zeros((d + 1, d + 1))  # (A / (2 I_f)) K_r
    coupling[:d, d] = coupling[d, :d] = (
        job.rms_area / (2.0 * _ENVELOPES[job.shape][1]) * np.abs(unit)
    )
    detuning = np.zeros((d + 1, d + 1))
    detuning[d, d] = job.detuning
    return gauge, coupling, detuning


def propagate(job: PulseJob) -> Propagator:
    """Integrate the multipod Schrodinger equation over the pulse.

    Works in dimensionless time t/T over [-T_MAX, T_MAX], where the
    Hamiltonian is (A / (2 I_f)) f(t) K + (Delta T) |c><c| with K the
    coupling block and I_f the envelope integral.  Only the half window
    [0, T_MAX] is integrated; time-reversal symmetry gives the other half.

    The gauge D = diag(u_k / |u_k|, 1) (any unit phase serves where
    u_k = 0) turns K into the real symmetric K_r = D^dag K D, with |u| on
    the coupling row and column, and leaves |c><c| alone.  The kernel's one
    assumption is that H_r(t) is symmetric and even in t (not that it is
    real or Hermitian): the backward half is the product of the forward
    half's factors, each its own transpose, in reverse order, so with
    V = U_r(T_MAX, 0), U_r(0, -T_MAX) = V^T without unitarity, and

        U = D V V^T D^dag.

    V is the ordered product of order-6 Magnus exponentials (three Gauss
    nodes per step) of the lab-frame H_r on a grid graded by the envelope
    (``_magnus_grid``).  Each step's generator is its own combination of 11
    fixed commutators of the coupling and detuning terms, built once per
    pulse in real form (``_commutator_basis``), with the step's 11 scalar
    coefficients, memoised per (shape, steps) (``_grid_coefficients``);
    a stack of steps is one matmul (``_magnus_generators``).  Each block
    of steps whose generators fit _BLOCK_BYTES is exponentiated in place
    (``_expm``), multiplied by a pairwise tree (``_ordered_product``) and
    folded into V (``_half_window``), so V_M depends only on the job and M.
    The grid has M steps, a power of two, first
    2^floor(log2(b + 32 sqrt|A Delta T| + c min(|A|, 4 |A Delta T|))) steps,
    with b = 192 and c = 1.25 for a sech pulse and b = 128 and c = 0 for a
    Gaussian (``_ENVELOPES``): 128 for a resonant pulse, where H_r commutes
    with itself and only the quadrature of f is approximated, and 256 for
    a 2 pi sech pulse at Delta T = 0.5.  V_M is accepted when
    |V_M - V_{M/2}| / 63, an estimate of its largest entry error since the
    scheme's error falls as M^-6, is at most MAGNUS_TOL = 2e-12; otherwise
    M doubles.  A 2 pi sech pulse at
    d = 3 takes 128 steps at Delta T = 0, 256 at Delta T = 2, 512 at 10
    and 4096 at 100.  Past MAX_MAGNUS_STEPS it raises RuntimeError.  All
    d+1 levels are integrated: the gauge rephases basis states by
    constants, so this is not a Morris-Shore reduction and the reflection
    fit still checks it.
    """
    gauge, coupling, detuning = _gauged_terms(job)
    basis = _commutator_basis(coupling, detuning)
    base, per_area = _ENVELOPES[job.shape][2]
    product = abs(job.rms_area * job.detuning)
    guess = base + 32.0 * math.sqrt(product) + per_area * min(abs(job.rms_area), 4.0 * product)
    steps = 2 ** int(math.log2(guess))
    coarse = _half_window(basis, job.shape, steps // 2)
    while True:
        half = _half_window(basis, job.shape, steps)
        estimate = float(np.max(np.abs(half - coarse))) / 63.0
        if estimate <= MAGNUS_TOL:
            break
        if 2 * steps > MAX_MAGNUS_STEPS:
            raise RuntimeError(
                f"propagator did not reach the tolerance {MAGNUS_TOL:g}: error "
                f"estimate {estimate:.1e} at {steps} Magnus steps, the limit is "
                f"{MAX_MAGNUS_STEPS}"
            )
        coarse, steps = half, 2 * steps
    matrix = gauge[:, None] * (half @ half.T) * gauge.conj()
    return Propagator(matrix, steps, estimate)


def wrap_phase(x: float) -> float:
    """Reduce an angle exactly to (-pi, pi], mapping the -pi branch edge to +pi."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y <= -math.pi + 1e-12 else y


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
    the area is not a multiple of 2 pi or the window is too short.
    Couplings that are not 1-D, not finite, all zero or of a 2-norm that
    overflows or underflows a double raise ValueError, as in ``PulseJob``.
    """
    couplings = _checked_couplings(couplings)
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
            f"not a qudit-manifold return (not a multiple of 2 pi) or the window is too short"
        )
    block = matrix[:d, :d]
    axis = couplings / np.linalg.norm(couplings)
    projector = np.outer(axis, axis.conj())
    gamma = float(np.angle(np.trace((np.eye(d) - projector) @ block)))
    phase = wrap_phase(float(np.angle(axis.conj() @ block @ axis)) - gamma)
    model = np.eye(d) + (np.exp(1j * phase) - 1.0) * projector
    residual = float(np.max(np.abs(block - np.exp(1j * gamma) * model)))
    return ReflectionFit(phase, residual, leakage)


def analytic_sech_phase(delta_t: float, rms_area: float = 2.0 * math.pi) -> float:
    """Reflection phase of a sech pulse of area 2k pi, on ``wrap_phase``'s branch.

    phi_k = k pi - 2 sum_{j=1..k} arctan(Delta T / (2j - 1)) with
    k = round(|rms_area| / 2 pi), reduced to (-pi, pi]: the Rosen-Zener
    sech model (Phys. Rev. 40, 502 (1932)).  At area 2 pi this is
    pi - 2 arctan(Delta T).  An area that ``PulseJob`` refuses raises its ValueError.
    """
    k = round(abs(_bounded(rms_area, "rms_area", MAX_RMS_AREA)) / (2.0 * math.pi))
    phase = k * math.pi - 2.0 * sum(math.atan(delta_t / (2 * j - 1)) for j in range(1, k + 1))
    return wrap_phase(phase)


@dataclass(frozen=True)
class PulseGateReport:
    """A pulse-synthesized gate against its closed form: passed iff deviation < 1e-5."""

    deviation: float
    gate: FGate
    fit: ReflectionFit

    @property
    def passed(self) -> bool:
        return self.deviation < 1e-5


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
    return PulseGateReport(deviation, gate, fit)
