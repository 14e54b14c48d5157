"""Qudit registers: dense state vectors over flat basis indices.

A register of n qudits with d levels each spans N = d**n basis states,
each named by its flat index in [0, N).  The flat index is big-endian in
the qudits: qudit 0 is the most significant digit, so the basis state
|q_0 q_1 ... q_{n-1}> has flat index sum_k q_k * d**(n-1-k).
Amplitudes are stored as a dense complex128 array of length N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense storage only; anything bigger than this is refused outright.  The
# step's BLAS kernels are scipy's 32-bit-int builds: zgeru and zgemv take the
# state matrix's m and n (each at most d^ceil(n/2) on the search path) as
# 32-bit ints.  The limit stays at 2^31 - 1 all the same: a general axis
# (ones(1), chi) makes m = N, and 2^31 amplitudes are already 32 GiB.
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

    def copy(self) -> "StateVector":
        return StateVector(self.shape, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


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
