"""Generalized Householder reflections and the Grover step.

The workhorse operator is M(chi, phi) = 1 + (e^{i phi} - 1)|chi><chi|,
applied to a state vector as a rank-1 update in O(N) arithmetic.  Two
special cases drive the search:

* oracle: chi is a basis state, so the update touches one amplitude;
* diffusion: chi is the equal-weight register superposition F^(x)n |0>,
  applied directly as a rank-1 update.

The direct diffusion takes its axis as a Kronecker pair (head, tail),
chi = kron(head, tail).  Viewed as a Fortran (tail.size x head.size)
matrix, the state then takes the update as one in-place zgeru with the
two small factors: 32 N bytes moved (read and write the state), and no
N-sized axis anywhere.  F^(x)n |0> splits this way by construction; a
general axis chi is the pair (ones(1), chi).  The update's one global
number, the overlap <chi|s>, is passed in by a caller that knows it (the
search loop carries it from step to step in O(1)); otherwise it is
measured as tail^dagger S conj(head) with zgemv and zdotc.

``rank1_update`` is the one zgeru call: ``diffusion_direct`` applies it
to the whole matrix, and the search loop to one block of its columns at
a time.  It folds the coefficient into the head factor first and calls
zgeru with alpha = 1, so every amplitude is formed as tail_i (alpha
head_j) on any number of BLAS threads and in any block of columns.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType

import numpy as np

from .register import StateVector

# (head, tail): the axis kron(head, tail) of a direct diffusion.
Axis = tuple[np.ndarray, np.ndarray]


# Every step kernel comes from scipy's BLAS.  numpy's wheel and scipy's wheel
# each bundle their own OpenBLAS (scipy-openblas64 0.3.31 for numpy,
# scipy-openblas32 0.3.30 for scipy), and each library keeps its own pool of
# threads, one per core.  Pairing numpy's np.vdot with scipy's zaxpy made the
# two pools fight over the cores: on a 2-core machine a step at N=3^12 took
# 8.0 ms that way against 0.8 ms with both kernels from scipy.  Keep the
# overlap (zgemv, zdotc) and the update (zgeru) on one library.
#
# The kernels come straight from scipy's f2py extension linalg/_fblas, loaded
# from its file on the first step: the scipy.linalg package around it costs
# a fresh interpreter about 0.3 s and 27 MiB, the extension about 10 ms and
# 3 MiB, and schedule, validate-f and the pulse commands need neither.  The
# extension is registered under its own name, so a later import of
# scipy.linalg.blas in the same process hands out these same functions (one
# OpenBLAS, one pool).
_FBLAS_MODULE = "scipy.linalg._fblas"


def _scipy_dirs() -> list[str]:
    """scipy's package directories, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    return spec.submodule_search_locations if spec else []


@functools.cache
def _fblas() -> ModuleType:
    """scipy's BLAS extension, loaded on the first call and cached after it."""
    fblas = sys.modules.get(_FBLAS_MODULE)  # already there if scipy.linalg was imported
    if fblas is None:
        paths = (os.path.join(root, "linalg", "_fblas" + suffix)
                 for root in _scipy_dirs() for suffix in EXTENSION_SUFFIXES)
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            import scipy  # for its version; a missing scipy raises here
            raise ImportError(f"scipy {scipy.__version__} has no linalg/_fblas "
                              f"extension, which the step's BLAS kernels come from")
        spec = importlib.util.spec_from_file_location(_FBLAS_MODULE, path)
        fblas = importlib.util.module_from_spec(spec)
        sys.modules[_FBLAS_MODULE] = fblas
        spec.loader.exec_module(fblas)
    return fblas


def axis_view(s: StateVector, axis: Axis) -> np.ndarray:
    """A view of the amplitudes as the Fortran (tail.size x head.size) matrix
    S, with S[i, j] = s[j * tail.size + i]."""
    head, tail = axis
    if head.size * tail.size != s.amps.size:
        raise ValueError(
            f"shape mismatch: axis {head.size} x {tail.size} vs state N={s.amps.size}"
        )
    return s.amps.reshape((tail.size, head.size), order="F")


def axis_overlap(s: StateVector, axis: Axis) -> complex:
    """<kron(head, tail)|s> = tail^dagger S conj(head), S the state as a matrix."""
    head, tail = axis
    blas = _fblas()
    return complex(blas.zdotc(tail, blas.zgemv(1.0, axis_view(s, axis), head.conj())))


def unitarity_defect(g: np.ndarray) -> float:
    """Max entrywise deviation of G^dagger G from the identity."""
    g = np.asarray(g)
    return float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))))


def oracle(s: StateVector, marked: int, phi: float) -> StateVector:
    """Multiply the marked amplitude by e^{i phi}; O(1), all others untouched."""
    if not 0 <= marked < s.shape.N:
        raise ValueError(f"marked index {marked} outside [0, {s.shape.N})")
    s.amps[marked] *= np.exp(1j * phi)
    return s


def apply_local_gate(s: StateVector, g: np.ndarray, k: int) -> StateVector:
    """Apply a d x d gate to qudit k: s' = (1 ... (x) g at slot k (x) ... 1) s.

    The amplitude array is viewed as (d**k, d, d**(n-1-k)); the gate
    contracts the middle axis, i.e. groups of d amplitudes at stride
    d**(n-1-k), vectorized over all N/d groups; the result is written back
    into the state's buffer.
    """
    d, n = s.shape.d, s.shape.n
    if not 0 <= k < n:
        raise ValueError(f"qudit position {k} outside [0, {n})")
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (d, d):
        raise ValueError(f"gate has shape {g.shape}, expected ({d}, {d})")
    view = s.amps.reshape(d**k, d, d ** (n - 1 - k))
    view[...] = np.einsum("ij,ljr->lir", g, view)
    return s


def rank1_update(
    matrix: np.ndarray,
    alpha: complex,
    tail: np.ndarray,
    head: np.ndarray,
    scaled: np.ndarray,
) -> None:
    """In place: matrix += alpha outer(tail, head), matrix Fortran-contiguous complex128.

    ``scaled`` (complex128, head's shape) receives alpha head, which zgeru
    then takes with alpha = 1.  OpenBLAS's threaded zger forms alpha x y^T
    in another order than its one-thread kernel, so a complex alpha passed
    to it would make the last bits depend on the thread count; 1 y_j is
    exact.
    """
    np.multiply(head, alpha, out=scaled)
    # zgeru updates the Fortran-contiguous matrix in place.  The arguments
    # are positional, (alpha, x, y, incx, incy, a, overwrite_x, overwrite_y,
    # overwrite_a): f2py takes about 1 us longer to parse keywords, a tenth
    # of a step at N=3^9.
    _fblas().zgeru(1.0, tail, scaled, 1, 1, matrix, 1, 1, 1)


def diffusion_direct(
    s: StateVector,
    axis: Axis,
    phi: float,
    overlap: complex | None = None,
) -> StateVector:
    """In-place rank-1 update s += (e^{i phi} - 1) <chi|s> |chi>, chi = kron(head, tail).

    ``axis`` is the pair (head, tail); a general axis chi is (ones(1), chi).
    ``overlap`` is <chi|s> if the caller knows it; the update is then one
    zgeru pass.  With none given it is measured with zgemv and zdotc
    first.  The axis is assumed unit-norm up to rounding (it is
    F^(x)n |0> in the search loop); no per-call normalization check.
    """
    head, tail = axis
    view = axis_view(s, axis)  # the StateVector's buffer is contiguous and writeable
    if overlap is None:
        overlap = axis_overlap(s, axis)
    scaled = np.empty(head.shape, dtype=np.complex128)
    rank1_update(view, (np.exp(1j * phi) - 1.0) * overlap, tail, head, scaled)
    return s


def grover_step(
    s: StateVector,
    marked: int,
    phi: float,
    axis: Axis,
    overlap: complex | None = None,
) -> StateVector:
    """One search iteration: oracle at the marked index, then diffusion, both at phi.

    ``axis`` is the diffusion's (head, tail) pair.  ``overlap`` is passed
    on to the diffusion: <axis|O s>, the overlap after the oracle kick, if
    the caller carries it.
    """
    oracle(s, marked, phi)
    diffusion_direct(s, axis, phi, overlap)
    return s
