"""Reference helpers the tests share; the package itself does not need them."""

import numpy as np

from quditsearch.register import StateVector


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
