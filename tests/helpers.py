"""Reference helpers the tests share; the package itself does not need them."""

import ctypes
import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quditsearch
from quditsearch.engine import ExperimentConfig, diffusion_axis
from quditsearch.fgates import make_f
from quditsearch import reflections
from quditsearch.multipod import _ENVELOPES, _GAUSS_NODES, _magnus_grid
from quditsearch.reflections import apply_local_gate, grover_step, oracle, unitarity_defect
from quditsearch.register import BasisIndex, QuditShape, StateVector
from quditsearch.scheduler import _beta


def config(d, n, schedule, marked=0, **kw) -> ExperimentConfig:
    """A search of ``schedule`` on n qudits of dimension d, marking flat index ``marked``."""
    shape = QuditShape(d, n)
    return ExperimentConfig(
        shape=shape,
        marked=BasisIndex.from_flat(shape, marked),
        schedule=schedule,
        **kw,
    )


def basis_state(shape: QuditShape, flat: int) -> StateVector:
    """Computational basis state |flat> (unit amplitude at one index)."""
    if not 0 <= flat < shape.N:
        raise ValueError(f"basis index {flat} outside [0, {shape.N})")
    amps = np.zeros(shape.N, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(shape, amps)


def two_state_populations(N: int, phi: float, steps: int) -> np.ndarray:
    """Marked-state population after each of 0..steps phase-matched steps.

    The two-state model every run is checked against: the Grover operator
    restricted to span{|marked>, |superposition>} (overlap 1/sqrt(N)) is a
    2x2 complex matrix G, built once; entry k is |(G^k s)_0|^2 with s the
    starting superposition, for any phi.
    """
    beta = _beta(N)
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    s = np.array([math.sin(beta), math.cos(beta)], dtype=np.complex128)
    phase = np.exp(1j * phi)
    g = (np.eye(2) + (phase - 1.0) * np.outer(s, s.conj())) @ np.diag([phase, 1.0])
    amps = np.empty((steps + 1, 2), dtype=np.complex128)
    amps[0] = s
    for k in range(steps):
        amps[k + 1] = g @ amps[k]
    return np.abs(amps[:, 0]) ** 2


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard matrix (1/sqrt(2)) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_x conj(a_x) b_x."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amps, b.amps))


def phase_distance(a: float, b: float) -> float:
    """Distance between angles on the circle."""
    return abs(float(np.angle(np.exp(1j * (a - b)))))


def copy_state(s: StateVector) -> StateVector:
    """A StateVector with its own copy of ``s``'s amplitudes."""
    return StateVector(s.shape, s.amps.copy())


def diffusion_via_gates(s: StateVector, f: np.ndarray, phi: float) -> StateVector:
    """Reflection about F^(x)n |0>, assembled from local gates.

    Applies F^dagger to every qudit, shifts the phase of |0...0>, then
    applies F to every qudit: the reference the rank-1 diffusion is
    checked against.
    """
    f = np.asarray(f, dtype=np.complex128)
    if unitarity_defect(f) > 1e-10:
        raise ValueError("diffusion gate is not unitary")
    f_dag = f.conj().T
    for k in range(s.shape.n):
        apply_local_gate(s, f_dag, k)
    oracle(s, 0, phi)
    for k in range(s.shape.n):
        apply_local_gate(s, f, k)
    return s


def kron_power_outer(column: np.ndarray, k: int) -> np.ndarray:
    """column^(x)k as a left-to-right chain of np.kron from ones(1) (ones(1) at k = 0).

    The reference ``diffusion_axis``'s outer-product chains are checked
    against to the bit: np.kron forms each product a_i b_j the same way,
    by its own code; ``superposition_register`` is the outer product of
    those factors, so it needs no power of its own.
    """
    return functools.reduce(np.kron, [column] * k, np.ones(1, dtype=np.complex128))


def dense_grover_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """Brute-force N x N Grover operator of ``cfg``, one basis vector per column."""
    N = cfg.shape.N
    if N > 1024:
        raise ValueError(f"dense matrix limited to N <= 1024, got N={N}")
    axis = diffusion_axis(cfg.shape, make_f(cfg.shape.d, cfg.f_kind))
    matrix = np.zeros((N, N), dtype=np.complex128)
    for col in range(N):
        state = basis_state(cfg.shape, col)
        grover_step(state, cfg.marked.flat, cfg.schedule.phi, axis)
        matrix[:, col] = state.amps
    return matrix


def run_fresh(*args, timeout=60, env=None, **kw):
    """Run the interpreter with ``args`` on this package in a fresh process."""
    src = os.path.dirname(os.path.dirname(quditsearch.__file__))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src, **(env or {})}, **kw,
    )


def run_python(code, **env):
    """Run code in a fresh interpreter on this package; its stdout."""
    proc = run_fresh("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def numpy_exports_zgeru() -> bool:
    """Whether the step binds numpy's own BLAS's zgeru, as on numpy's Linux
    wheels; elsewhere it runs on scipy's.  This asks reflections._zgeru, so
    it fills that lookup's cache at collection; every test that patches
    reflections._ZGERU empties the cache before and after (the zgeru_cache
    fixture, test_search_without_a_zgeru_is_runtime_error)."""
    try:
        return isinstance(reflections._zgeru(), ctypes._CFuncPtr)
    except ImportError:
        return False


# Marks a test of a search on numpy's own zgeru: one OpenBLAS and no scipy
needs_numpys_zgeru = pytest.mark.skipif(
    not numpy_exports_zgeru(), reason="numpy's BLAS exports no zgeru; the step runs on scipy's")


def commutator(x: np.ndarray, y: np.ndarray, sign: int) -> np.ndarray:
    """[x, y] of stacks of real matrices, each symmetric or antisymmetric.

    sign is +1 when x and y have the same symmetry and -1 otherwise; then
    y x = sign (x y)^T, so one matmul serves.
    """
    xy = x @ y
    return xy - sign * xy.swapaxes(-1, -2)


def magnus_generators(h: np.ndarray, ham: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-6 Magnus generators Omega = anti - 1j sym of a general H.

    The general reference ``multipod._magnus_generators`` is checked
    against: h holds the step widths and ham the real symmetric H at each
    step's three Gauss nodes, shape (steps, 3, n, n), with no assumption
    on how H depends on time.  With A = -iH the scheme is (Blanes, Casas & Ros,
    BIT 40, 434 (2000))

        a1 = h A2,  a2 = (sqrt(15) h / 3)(A3 - A1),  a3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240.

    Writing a_i = -i X_i with X_i real symmetric, each commutator of an odd
    number of X's is imaginary symmetric and of an even number real
    antisymmetric, so all of them are real matmuls.
    """
    h1, h2, h3 = ham[:, 0], ham[:, 1], ham[:, 2]
    h = h[:, None, None]
    x1 = h * h2
    x2 = (np.sqrt(15.0) / 3.0) * h * (h3 - h1)
    x3 = (10.0 / 3.0) * h * (h3 - 2.0 * h2 + h1)
    c1 = commutator(x1, x2, 1)  # C1 = -c1
    c2_real = commutator(x1, x3, 1) / 30.0
    d2 = -commutator(x1, c1, -1) / 60.0 - x2  # a2 + C2 = c2_real + 1j d2
    b = 20.0 * x1 + x3  # -20 a1 - a3 + C1 = -c1 + 1j b
    sym = x1 + x3 / 12.0 + (commutator(c1, d2, -1) - commutator(b, c2_real, -1)) / 240.0
    anti = -(commutator(c1, c2_real, 1) + commutator(b, d2, 1)) / 240.0
    return sym, anti


def grid_nodes(shape: str, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Step widths h and envelope f at each step's three Gauss nodes, (steps, 3)."""
    envelope = _ENVELOPES[shape][0]
    times = _magnus_grid(envelope, steps)
    h = times[1:] - times[:-1]
    return h, envelope(times[:-1, None] + h[:, None] * _GAUSS_NODES)


def stacked_commutator_basis(coupling: np.ndarray, detuning: np.ndarray) -> np.ndarray:
    """The 11 commutators of ``multipod._commutator_basis`` in the stacked layout.

    Each is the (2n, n) array [anti; -sym] of its share of the generator
    anti - 1j sym, in the order K, [C, S1], [C, S2], [D, S1], [D, S2],
    C, D, S1, S2, [K, S1], [K, S2].  The real-form basis must hold these
    as its first n columns.
    """
    def bracket(x, y):
        return x @ y - y @ x

    c, d = coupling, detuning
    k = bracket(d, c)
    s1, s2 = bracket(c, k), bracket(d, k)
    anti = (k, bracket(c, s1), bracket(c, s2), bracket(d, s1), bracket(d, s2))
    sym = (c, d, s1, s2, bracket(k, s1), bracket(k, s2))
    zero = np.zeros_like(c)
    return np.stack(
        [np.concatenate([x, zero]) for x in anti] + [np.concatenate([zero, -x]) for x in sym]
    )


def stacked_magnus_generators(
    basis: np.ndarray, h: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Stacked generators [anti; -sym] of a stack of steps from h and f (steps, 3).

    basis is ``stacked_commutator_basis``; the per-step coefficients are
    those ``multipod._grid_coefficients`` tabulates, written out here from
    the scheme (see ``magnus_generators``): with X1 = p C + h D, X2 = q C
    and X3 = r C, p = h f2, q = (sqrt(15) h / 3)(f3 - f1) and
    r = (10 h / 3)(f3 - 2 f2 + f1).
    """
    return (
        magnus_coefficients(h, f) @ basis.reshape(len(basis), -1)
    ).reshape(h.shape + basis.shape[1:])


def magnus_coefficients(h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(steps, 11) coefficients of the commutator basis, in the basis order."""
    f1, f2, f3 = f.T
    p = h * f2
    q = (np.sqrt(15.0) / 3.0) * h * (f3 - f1)
    r = (10.0 / 3.0) * h * (f3 - 2.0 * f2 + f1)
    hq, hhq = h * q, h * h * q
    u = (20.0 * p + r) / 14400.0
    return np.stack([
        hq / 12.0, u * p * hq, u * hhq, p * hhq / 720.0, h * hhq / 720.0,
        p + r / 12.0, h, (hq * q - 480.0 * h * r * u) / 240.0, -h * h * r / 360.0,
        -p * hhq * q / 14400.0, -h * hhq * q / 14400.0,
    ], axis=-1)


def real_form(stacked: np.ndarray) -> np.ndarray:
    """[[x, -y], [y, x]] of a stack of stacked matrices [x; y]."""
    n = stacked.shape[-1]
    x, y = stacked[..., :n, :], stacked[..., n:, :]
    return np.block([[x, -y], [y, x]])
