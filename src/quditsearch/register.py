"""Qudit registers: dense state vectors and mixed-radix index arithmetic.

A register of n qudits with d levels each spans N = d**n basis states.
Digit strings are big-endian: the first qudit is the most significant
digit, so |q1 q2 ... qn> has flat index sum_k q_k * d**(n-1-k).
Amplitudes are stored as a dense complex128 array of length N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

# Dense storage only; anything bigger than this is refused outright.  The
# step's BLAS kernels (scipy's zdotc/zaxpy) take a 32-bit int length.
MAX_STATES = 2**31 - 1


@dataclass(frozen=True)
class QuditShape:
    """Register geometry: ``d`` levels per qudit, ``n`` qudits."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudits need d >= 2 levels, got d={self.d}")
        if self.n < 1:
            raise ValueError(f"register needs n >= 1 qudits, got n={self.n}")
        if self.d**self.n > MAX_STATES:
            raise ValueError(
                f"database size d**n = {self.d}**{self.n} exceeds the "
                f"dense-storage limit 2**31 - 1"
            )

    @property
    def N(self) -> int:
        """Database size d**n."""
        return self.d**self.n

    def to_flat(self, digits: Iterable[int]) -> int:
        """Big-endian mixed-radix encoding of a digit string."""
        digits = tuple(int(q) for q in digits)
        if len(digits) != self.n:
            raise ValueError(f"expected {self.n} digits, got {len(digits)}")
        flat = 0
        for q in digits:
            if not 0 <= q < self.d:
                raise ValueError(f"digit {q} outside [0, {self.d})")
            flat = flat * self.d + q
        return flat

    def to_digits(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`to_flat`."""
        flat = int(flat)
        if not 0 <= flat < self.N:
            raise ValueError(f"flat index {flat} outside [0, {self.N})")
        digits = []
        x = flat
        for _ in range(self.n):
            digits.append(x % self.d)
            x //= self.d
        return tuple(reversed(digits))


@dataclass(frozen=True)
class BasisIndex:
    """A basis state labelled both by its digit string and its flat index."""

    digits: tuple[int, ...]
    flat: int

    @classmethod
    def from_flat(cls, shape: QuditShape, flat: int) -> "BasisIndex":
        return cls(shape.to_digits(flat), int(flat))

    @classmethod
    def from_digits(cls, shape: QuditShape, digits: Iterable[int]) -> "BasisIndex":
        digits = tuple(int(q) for q in digits)
        return cls(digits, shape.to_flat(digits))


IndexLike = Union[BasisIndex, int]


def _flat(x: IndexLike) -> int:
    return x.flat if isinstance(x, BasisIndex) else int(x)


@dataclass
class StateVector:
    """Dense amplitude vector over the N basis states of a register."""

    shape: QuditShape
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.shape.N,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({self.shape.N},)"
            )
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.shape, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def basis_state(shape: QuditShape, x: IndexLike) -> StateVector:
    """Computational basis state |x> (unit amplitude at one index)."""
    flat = _flat(x)
    if not 0 <= flat < shape.N:
        raise ValueError(f"basis index {flat} outside [0, {shape.N})")
    amps = np.zeros(shape.N, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(shape, amps)


def population(s: StateVector, x: IndexLike) -> float:
    """|amplitude_x|^2 of basis state x."""
    flat = _flat(x)
    if not 0 <= flat < s.shape.N:
        raise ValueError(f"basis index {flat} outside [0, {s.shape.N})")
    return float(abs(s.amps[flat]) ** 2)
