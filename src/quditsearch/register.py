"""Qudit registers: dense state vectors over flat basis indices.

A register of n qudits with d levels each spans N = d**n basis states,
each named by its flat index in [0, N).  The flat index is big-endian in
the qudits: qudit 0 is the most significant digit, so the basis state
|q_0 q_1 ... q_{n-1}> has flat index sum_k q_k * d**(n-1-k).
Amplitudes are stored as a dense complex128 array of length N.
``_squared_norm`` is the one squared norm of a state or an axis factor:
numpy's own pairwise sums and an exact fsum, never a BLAS dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Dense storage only; anything bigger is refused outright.  The step's zgeru
# takes the state matrix's m and n (m = N for a general axis (ones(1), chi))
# as 64-bit ints from numpy's OpenBLAS and as 32-bit ones from scipy's, which
# 2^31 - 1 fits; 2^31 amplitudes would already be 32 GiB.
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
        # d >= 2, so n > 31 is too big already; check it before the power,
        # whose cost grows with n.
        if self.n > 31 or self.d**self.n > MAX_STATES:
            raise ValueError(
                f"database size d**n = {self.d}**{self.n} exceeds the "
                f"dense-storage limit 2**31 - 1"
            )

    @property
    def N(self) -> int:
        """Database size d**n."""
        return self.d**self.n


@dataclass(frozen=True)
class BasisIndex:
    """A basis state of a register, by its flat index."""

    flat: int

    @classmethod
    def from_flat(cls, shape: QuditShape, flat: int) -> "BasisIndex":
        flat = int(flat)
        if not 0 <= flat < shape.N:
            raise ValueError(f"flat index {flat} outside [0, {shape.N})")
        return cls(flat)


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector over the N basis states of a register.

    ``amps`` is fixed for the state's lifetime: a C-contiguous, writeable
    complex128 buffer that every kernel updates in place.  An input that
    already is one is adopted as is; any other (strided, read-only,
    another dtype) is copied into one.
    """

    shape: QuditShape
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.require(self.amps, np.complex128, ["C", "W"])
        if amps.shape != (self.shape.N,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({self.shape.N},)"
            )
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.amps))


def _squared_norm(amps: np.ndarray) -> float:
    """sum_x |amps_x|^2 of a contiguous complex128 array, accurate to a few
    ulp and independent of BLAS threads.

    numpy sums each block pairwise on one thread and fsum adds the block
    sums exactly, with no N-sized temporary.  BLAS is neither: at N=3^12
    zdotc's sequential sum is off by about 7e-13, by a different amount on
    one thread than on two.
    """
    x = amps.view(np.float64)
    block = 1 << 13  # 64 KiB of squares at a time
    return math.fsum(float(np.sum(np.square(x[i:i + block]))) for i in range(0, x.size, block))


def basis_state(shape: QuditShape, flat: int) -> StateVector:
    """Computational basis state |flat> (unit amplitude at one index)."""
    if not 0 <= flat < shape.N:
        raise ValueError(f"basis index {flat} outside [0, {shape.N})")
    amps = np.zeros(shape.N, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(shape, amps)


def population(s: StateVector, flat: int) -> float:
    """|amplitude|^2 of basis state |flat>."""
    if not 0 <= flat < s.shape.N:
        raise ValueError(f"basis index {flat} outside [0, {s.shape.N})")
    return float(abs(s.amps[flat]) ** 2)
