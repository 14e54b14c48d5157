"""Generalized Householder reflections and the Grover step.

The workhorse operator is M(chi, phi) = 1 + (e^{i phi} - 1)|chi><chi|,
applied to a state vector as a rank-1 update in O(N) arithmetic.  Two
special cases drive the search:

* oracle: chi is a basis state, so the update touches one amplitude;
* diffusion: chi is the equal-weight register superposition F^(x)n |0>,
  applied directly as a rank-1 update.

The direct diffusion takes its axis as a Kronecker pair (head, tail),
chi = kron(head, tail) (a general axis chi is (ones(1), chi)).  Viewed as
a Fortran (tail.size x head.size) matrix S, the state takes the update as
one in-place zgeru with the two small factors: 32 N bytes moved, and no
N-sized axis.  Its one global number, the overlap <chi|s>, comes from a
caller that knows it (the search loop carries it in O(1)) or is measured
by ``axis_overlap``, in a fixed order and with no BLAS.  ``rank1_kernel``
binds one zgeru call to its three factors, a matrix (the whole S, a block
of its columns, or several runs' matrices side by side), the tail and the
head, and returns the update ``update(alpha)``: it folds the coefficients
into the head and calls zgeru with alpha = 1, so every amplitude is
tail_i (alpha head_j) on any number of BLAS threads.
"""

from __future__ import annotations

import ctypes  # numpy imports it already, so this costs nothing
import functools
from collections.abc import Callable

import numpy as np

from .register import StateVector

# (head, tail): the axis kron(head, tail) of a direct diffusion.
Axis = tuple[np.ndarray, np.ndarray]


# One OpenBLAS per process: zgeru comes from the OpenBLAS in numpy's wheel,
# which numpy's matmul (the pulse's products among them) runs on too.  Each
# OpenBLAS keeps a pool of threads, one per core, spinning 0.1-0.2 s after a
# threaded call; scipy's wheel bundles a second one, which costs a search
# 2.7 MiB and whose pool fights numpy's (a sweep right after a pulse ran 2x
# slower).  numpy's OpenBLAS exports the Fortran zgeru, prefixed and with
# 64-bit ints, which dlsym on numpy's _multiarray_umath finds among its
# dependencies on Linux.  Where it finds none (numpy on Accelerate, MKL or a
# distribution's BLAS; Windows) the step takes scipy's zgeru.
_ZGERU = "scipy_zgeru_64_"


@functools.cache
def _zgeru() -> Callable[..., object]:
    """numpy's OpenBLAS zgeru (ctypes) or else scipy's, looked up once."""
    from numpy._core import _multiarray_umath

    try:
        zgeru = getattr(ctypes.CDLL(_multiarray_umath.__file__), _ZGERU)
    except (AttributeError, OSError):
        try:
            from scipy.linalg.blas import zgeru
        except ImportError:
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
            raise ImportError(f"numpy {np.__version__}'s BLAS ({blas.get('name')} "
                              f"{blas.get('version')}) exports no {_ZGERU}, and scipy "
                              f"is not installed") from None
        return zgeru
    zgeru.restype = None
    return zgeru


def rank1_kernel(matrix: np.ndarray, tail: np.ndarray,
                 head: np.ndarray) -> Callable[[complex | np.ndarray], None]:
    """The in-place rank-1 update of ``matrix`` by ``tail`` and ``head``, through
    zgeru bound here once: ``update(alpha)`` adds outer(tail, alpha head).

    ``head`` is held as a (1, w) row, and the matrix's columns are K runs of
    w side by side; ``alpha`` is a (K, 1) column of coefficients, one per
    run, or a scalar when K = 1.  Their product goes into a (K, w)
    C-contiguous complex128 buffer, which zgeru takes, flattened, with
    alpha = 1, so every entry is formed as the scalar alpha_r head_j, at any
    K and w.  OpenBLAS's threaded zger forms alpha x y^T in another order
    than its one-thread kernel, so a complex alpha would make the last bits
    depend on the thread count; 1 y_j is exact.

    zgeru writes through a raw pointer, so ``matrix`` must be Fortran-
    contiguous, writeable complex128 and exactly tail.size x K w, with w > 0
    (ValueError otherwise): a copy would take the update silently.  ``tail``
    is made contiguous complex128.  The nine by-reference arguments are
    built here, with no argtypes, so a call converts nothing (argtypes cost
    about 1 us a call, a tenth of a step at N=3^9); ``data_as`` pointers
    keep their arrays alive.
    """
    if not (matrix.dtype == np.complex128 and matrix.ndim == 2
            and matrix.flags.f_contiguous and matrix.flags.writeable):
        raise ValueError("the rank-1 update needs a Fortran-contiguous, "
                         "writeable complex128 matrix")
    tail = np.ascontiguousarray(tail, dtype=np.complex128)
    head = np.asarray(head).reshape(1, -1)
    runs = matrix.shape[1] // max(1, head.size)
    if not head.size or (tail.size, runs * head.size) != matrix.shape:
        raise ValueError(f"shape mismatch: factors {tail.size} x {head.size} "
                         f"vs matrix {matrix.shape}")
    scaled = np.empty((runs, head.size), dtype=np.complex128)
    zgeru = _zgeru()
    if not isinstance(zgeru, ctypes._CFuncPtr):  # scipy's: (alpha, x, y, incx, incy,
        # a, overwrite_x, overwrite_y, overwrite_a), positional, a updated in place
        zgeru = functools.partial(zgeru, 1.0, tail, scaled.reshape(-1), 1, 1, matrix, 1, 1, 1)
    else:
        ints = (ctypes.c_int64 * 4)(*matrix.shape, 1, max(1, matrix.shape[0]))
        m, n, inc, lda = (ctypes.byref(ints, 8 * k) for k in range(4))
        x, y, a = (v.ctypes.data_as(ctypes.c_void_p) for v in (tail, scaled, matrix))
        one = ctypes.byref((ctypes.c_double * 2)(1.0, 0.0))
        zgeru = functools.partial(zgeru, m, n, one, x, inc, y, inc, a, lda)

    def update(alpha: complex | np.ndarray) -> None:
        np.multiply(head, alpha, scaled)  # out positional: the cheaper call
        zgeru()

    return update


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
    """<kron(head, tail)|s> = sum_j conj(head_j) sum_i conj(tail_i) S[i, j], S the
    state as a matrix: each column's sum over i, then the sum over j, in numpy's
    own einsum loops.  No BLAS runs, so no BLAS thread count moves its bits."""
    head, tail = axis
    columns = np.einsum("i,ij->j", tail.conj(), axis_view(s, axis), optimize=False)
    return complex(np.einsum("j,j->", head.conj(), columns, optimize=False))


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

    The amplitudes, viewed as (d**k, d, d**(n-1-k)), have their middle axis
    contracted with g, and the result is written back into the state's buffer.
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


def diffusion_direct(s: StateVector, axis: Axis, phi: float,
                     overlap: complex | None = None) -> StateVector:
    """In-place rank-1 update s += (e^{i phi} - 1) <chi|s> |chi>, chi = kron(head, tail).

    ``axis`` is the pair (head, tail); a general axis chi is (ones(1), chi).
    ``overlap`` is <chi|s> if the caller knows it, else ``axis_overlap``
    measures it first.  The axis is assumed unit-norm up to rounding (it is
    F^(x)n |0> in the search loop); no per-call normalization check.  It
    binds ``rank1_kernel`` on every call; ``run_searches`` binds once a block.
    """
    head, tail = axis
    view = axis_view(s, axis)  # the StateVector's buffer is contiguous and writeable
    if overlap is None:
        overlap = axis_overlap(s, axis)
    rank1_kernel(view, tail, head)((np.exp(1j * phi) - 1.0) * overlap)
    return s


def grover_step(s: StateVector, marked: int, phi: float, axis: Axis,
                overlap: complex | None = None) -> StateVector:
    """One search iteration: oracle at the marked index, then diffusion, both at phi.

    ``axis`` is the diffusion's (head, tail) pair; ``overlap``, if the caller
    carries it, is <axis|O s>, the overlap after the oracle kick.
    """
    oracle(s, marked, phi)
    diffusion_direct(s, axis, phi, overlap)
    return s
