"""Generalized Householder reflections and the Grover step.

The workhorse operator is M(chi, phi) = 1 + (e^{i phi} - 1)|chi><chi|,
applied to a state vector as a rank-1 update in O(N) arithmetic.  Two
special cases drive the search:

* oracle: chi is a basis state, so the update touches one amplitude;
* diffusion: chi is the equal-weight register superposition F^(x)n |0>,
  either applied directly as a rank-1 update or assembled from local
  gates as F^(x)n M(0, phi) (F^dagger)^(x)n.

The direct diffusion takes its axis as a Kronecker pair (head, tail),
chi = kron(head, tail).  Viewed as a Fortran (tail.size x head.size)
matrix, the state then takes the update as one in-place zgeru with the
two small factors: 32 N bytes moved (read and write the state), and no
N-sized axis anywhere.  F^(x)n |0> splits this way by construction; a
general axis chi is the pair (ones(1), chi).  The update's one global
number, the overlap <chi|s>, is passed in by a caller that knows it (the
search loop carries it from step to step in O(1)); otherwise it is
measured as tail^dagger S conj(head) with zgemv and zdotc.
"""

from __future__ import annotations

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
# scipy.linalg is imported on first use, not with this module: it costs a
# fresh interpreter about 0.3 s, which schedule and validate-f never need.
# The first call rebinds the names below to scipy's kernels, so the step
# finds BLAS in this module's globals with no import statement per call.
def _load_blas() -> None:
    global zdotc, zgemv, zgeru
    from scipy.linalg.blas import zdotc, zgemv, zgeru


def _first_use(name: str):
    """Stand-in for scipy's kernel ``name``: imports BLAS, then calls it."""
    def kernel(*args, **kwargs):
        _load_blas()
        return globals()[name](*args, **kwargs)
    return kernel


zdotc, zgemv, zgeru = (_first_use(name) for name in ("zdotc", "zgemv", "zgeru"))


def _axis_view(s: StateVector, axis: Axis) -> np.ndarray:
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
    return complex(zdotc(tail, zgemv(1.0, _axis_view(s, axis), head.conj())))


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


def diffusion_via_gates(s: StateVector, f: np.ndarray, phi: float) -> StateVector:
    """Reflection about F^(x)n |0>, assembled from local gates.

    Applies F^dagger to every qudit, shifts the phase of |0...0>, then
    applies F to every qudit.
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
    view = _axis_view(s, axis)
    if overlap is None:
        overlap = axis_overlap(s, axis)
    # zgeru updates the Fortran-contiguous view in place (the StateVector's
    # buffer is always contiguous and writeable).  The arguments are
    # positional, (alpha, x, y, incx, incy, a, overwrite_x, overwrite_y,
    # overwrite_a): f2py takes about 1 us longer to parse keywords, a tenth
    # of a step at N=3^9.
    zgeru((np.exp(1j * phi) - 1.0) * overlap, tail, head, 1, 1, view, 1, 1, 1)
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
