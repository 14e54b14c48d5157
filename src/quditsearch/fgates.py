"""Synthesis of the equal-superposition gate F.

F is any d x d unitary whose first column has entries of equal modulus
1/sqrt(d); it generalizes the Hadamard gate and seeds the search with
F^(x)n |0>.  Three constructions are provided:

* householder_f: the reflection 1 - 2|xi><xi| built from the coupling
  amplitudes Omega_0 = sqrt((1 - 1/sqrt(d))/2),
  Omega_k = sqrt(1/(2(d - sqrt(d)))) for k != 0.  Real, symmetric, and
  an involution; realizable in a single resonant multipod interaction.
* dft: the unitary discrete Fourier transform, entries
  exp(2i pi jk/d)/sqrt(d).
* random_phase_f: householder_f with a seeded random diagonal phase
  factor on the right, exercising the freedom in the superposition's
  relative phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .reflections import unitarity_defect
from .register import _integer

# Largest d that make_f builds.  F is a dense d x d complex matrix and its
# check costs O(d^3): on a 2-core Xeon VM, validate-f --f dft took 1.3 s
# at d = 2048 and 7.1 s at d = 4096, with several d x d arrays (256 MiB
# each) alive at once.
MAX_GATE_D = 4096


@dataclass(frozen=True)
class FGate:
    """A d x d unitary with an equal-moduli first column."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class FValidation:
    """Result of checking the F-gate contract: passed iff both defects are < 1e-10."""

    unitarity_defect: float
    column_deviation: float

    @property
    def passed(self) -> bool:
        return self.unitarity_defect < 1e-10 and self.column_deviation < 1e-10


def coupling_design(d: int) -> np.ndarray:
    """Multipod Rabi amplitudes with unit RMS that realize F as a reflection.

    Omega_0 = sqrt((1 - 1/sqrt(d))/2), Omega_{k!=0} = sqrt(1/(2(d - sqrt(d)))).
    """
    d = _integer(d, "level count d")
    if d < 2:
        raise ValueError(f"coupling design needs d >= 2, got d={d}")
    sd = np.sqrt(d)
    omegas = np.empty(d)
    omegas[0] = np.sqrt(0.5 * (1.0 - 1.0 / sd))
    omegas[1:] = np.sqrt(1.0 / (2.0 * (d - sd)))
    return omegas


def householder_f(d: int) -> FGate:
    """F as the phase-pi reflection 1 - 2|xi><xi| with xi = coupling_design(d).

    Real symmetric, hence F = F^dagger = F^{-1}; first column
    (1/sqrt(d), -1/sqrt(d), ..., -1/sqrt(d)).
    """
    xi = coupling_design(d)
    matrix = np.eye(d) - 2.0 * np.outer(xi, xi)
    return FGate(matrix)


def dft(d: int) -> FGate:
    """Unitary discrete Fourier transform, entries exp(2i pi jk/d)/sqrt(d)."""
    d = _integer(d, "level count d")
    if d < 2:
        raise ValueError(f"dft needs d >= 2, got d={d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    matrix = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    return FGate(matrix)


def random_phase_f(d: int, seed: int) -> FGate:
    """householder_f with seeded random phases as a right diagonal factor.

    Right multiplication by diag(e^{i theta_q}) rescales whole columns, so
    the first column keeps its equal moduli while the relative phases of
    the remaining columns vary.  The generator is numpy's PCG64, so a
    given 64-bit seed reproduces the same matrix on any platform.
    """
    householder = householder_f(d).matrix  # refuses a d that is not an integer first
    rng = np.random.default_rng(int(seed))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=d)
    return FGate(householder * np.exp(1j * thetas)[np.newaxis, :])


def validate_f(f: FGate) -> FValidation:
    """Check unitarity and the equal-moduli first-column contract.

    Passes iff both the unitarity defect (max entrywise |F^dagger F - 1|)
    and the first-column moduli deviation from 1/sqrt(d) are below 1e-10.
    """
    matrix = f.matrix
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"F must be a square matrix, got shape {matrix.shape}")
    d = matrix.shape[0]
    unit_defect = unitarity_defect(matrix)
    col_dev = float(np.max(np.abs(np.abs(matrix[:, 0]) - d**-0.5)))
    return FValidation(unit_defect, col_dev)


def f_constructor(kind: str) -> Callable[[int], FGate]:
    """The d -> FGate function an F tag names; parses the tag, builds no gate."""
    if kind == "householder":
        return householder_f
    if kind == "dft":
        return dft
    if kind.startswith("random:"):
        seed = kind.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):  # int() would also take " +1_0"
            raise ValueError(f"F kind {kind!r}: random:SEED needs an integer seed >= 0")
        return partial(random_phase_f, seed=int(seed))
    raise ValueError(
        f"unknown F kind {kind!r}; expected 'householder', 'dft', or 'random:SEED'"
    )


def make_f(d: int, kind: str) -> FGate:
    """Build an F gate from a tag: 'householder', 'dft', or 'random:SEED'.

    A d above MAX_GATE_D raises ValueError before anything is allocated.
    """
    constructor = f_constructor(kind)
    if d > MAX_GATE_D:
        raise ValueError(f"d {d} exceeds the limit {MAX_GATE_D}")
    return constructor(d)
