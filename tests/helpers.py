"""Reference helpers the tests share; the package itself does not need them."""

import os
import subprocess
import sys

import numpy as np

import quditsearch
from quditsearch.engine import ExperimentConfig, diffusion_axis
from quditsearch.fgates import make_f
from quditsearch.reflections import apply_local_gate, grover_step, oracle, unitarity_defect
from quditsearch.register import StateVector, basis_state


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
