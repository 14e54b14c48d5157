"""Reference helpers the tests share; the package itself does not need them."""

import os
import subprocess
import sys

import numpy as np

import quditsearch
from quditsearch.engine import ExperimentConfig, diffusion_axis
from quditsearch.fgates import make_f
from quditsearch.reflections import apply_local_gate, grover_step, oracle, unitarity_defect
from quditsearch.register import BasisIndex, QuditShape, StateVector, basis_state


def config(d, n, schedule, marked=0, **kw) -> ExperimentConfig:
    """A search of ``schedule`` on n qudits of dimension d, marking flat index ``marked``."""
    shape = QuditShape(d, n)
    return ExperimentConfig(
        shape=shape,
        marked=BasisIndex.from_flat(shape, marked),
        schedule=schedule,
        **kw,
    )


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


def commutator(x: np.ndarray, y: np.ndarray, sign: int) -> np.ndarray:
    """[x, y] of stacks of real matrices, each symmetric or antisymmetric.

    sign is +1 when x and y have the same symmetry and -1 otherwise; then
    y x = sign (x y)^T, so one matmul serves.
    """
    xy = x @ y
    return xy - sign * xy.swapaxes(-1, -2)


def magnus_generators(h: np.ndarray, ham: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-6 Magnus generators Omega = anti - 1j sym of a general H.

    The reference ``multipod._magnus_generators`` is checked against: h
    holds the step widths and ham the real symmetric H at each step's
    three Gauss nodes, shape (steps, 3, n, n), with no assumption on how
    H depends on time.  With A = -iH the scheme is (Blanes, Casas & Ros,
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
