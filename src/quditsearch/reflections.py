"""Generalized Householder reflections and the Grover step.

The workhorse operator is M(chi, phi) = 1 + (e^{i phi} - 1)|chi><chi|,
applied to a state vector as a rank-1 update in O(N) arithmetic.  Two
special cases drive the search:

* oracle: chi is a basis state, so the update touches one amplitude;
* diffusion: chi is the equal-weight register superposition F^(x)n |0>,
  either applied directly as a rank-1 update or assembled from local
  gates as F^(x)n M(0, phi) (F^dagger)^(x)n.

The direct diffusion needs one global number, the overlap <chi|s>.  A
caller that knows it (the search loop carries it from step to step in
O(1)) passes it in, and the step is one elementwise zaxpy pass;
otherwise it is measured with zdotc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .register import IndexLike, StateVector, _flat


# Both step kernels come from scipy's BLAS.  numpy's wheel and scipy's wheel
# each bundle their own OpenBLAS (scipy-openblas64 0.3.31 for numpy,
# scipy-openblas32 0.3.30 for scipy), and each library keeps its own pool of
# threads, one per core.  Pairing numpy's np.vdot with scipy's zaxpy makes the
# two pools fight over the cores: on a 2-core machine a step at N=3^12 took
# 8.0 ms that way against 0.8 ms with both kernels from scipy.  Keep the
# overlap and the update on one library.
#
# scipy.linalg is imported on first use, not with this module: it costs a
# fresh interpreter about 0.3 s, which schedule and validate-f never need.
# The first call rebinds both names below to scipy's kernels, so the step
# finds BLAS in this module's globals with no import statement per call.
def _load_blas() -> None:
    global zaxpy, zdotc
    from scipy.linalg.blas import zaxpy, zdotc


def zdotc(x: np.ndarray, y: np.ndarray) -> complex:
    """sum_i conj(x_i) y_i by scipy's BLAS, imported on first use."""
    _load_blas()
    return zdotc(x, y)


def zaxpy(x: np.ndarray, y: np.ndarray, a: complex) -> np.ndarray:
    """y + a x by scipy's BLAS, imported on first use."""
    _load_blas()
    return zaxpy(x, y, a=a)


def unitarity_defect(g: np.ndarray) -> float:
    """Max entrywise deviation of G^dagger G from the identity."""
    g = np.asarray(g)
    return float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))))


@dataclass
class Reflection:
    """Axis state |chi> plus a phase phi, defining M(chi, phi)."""

    axis: StateVector
    phase: float

    def __post_init__(self) -> None:
        if abs(self.axis.norm() - 1.0) > 1e-12:
            raise ValueError(f"reflection axis is not unit norm: {self.axis.norm()}")

    def inverse(self) -> "Reflection":
        return Reflection(self.axis, -self.phase)


def apply_reflection(s: StateVector, r: Reflection) -> StateVector:
    """Apply M(chi, phi) in place; the axis norm was checked by Reflection."""
    return diffusion_direct(s, r.axis, r.phase)


def oracle(s: StateVector, marked: IndexLike, phi: float) -> StateVector:
    """Multiply the marked amplitude by e^{i phi}; O(1), all others untouched."""
    flat = _flat(marked)
    if not 0 <= flat < s.shape.N:
        raise ValueError(f"marked index {flat} outside [0, {s.shape.N})")
    s.amps[flat] *= np.exp(1j * phi)
    return s


def apply_local_gate(s: StateVector, g: np.ndarray, k: int) -> StateVector:
    """Apply a d x d gate to qudit k: s' = (1 ... (x) g at slot k (x) ... 1) s.

    The amplitude array is viewed as (d**k, d, d**(n-1-k)); the gate
    contracts the middle axis, i.e. groups of d amplitudes at stride
    d**(n-1-k), vectorized over all N/d groups.
    """
    d, n = s.shape.d, s.shape.n
    if not 0 <= k < n:
        raise ValueError(f"qudit position {k} outside [0, {n})")
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (d, d):
        raise ValueError(f"gate has shape {g.shape}, expected ({d}, {d})")
    view = s.amps.reshape(d**k, d, d ** (n - 1 - k))
    s.amps = np.einsum("ij,ljr->lir", g, view).reshape(s.shape.N)
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
    axis_state: StateVector,
    phi: float,
    overlap: complex | None = None,
) -> StateVector:
    """In-place rank-1 update s += (e^{i phi} - 1) <chi|s> |chi>.

    ``overlap`` is <chi|s> if the caller knows it; the update is then one
    elementwise zaxpy pass.  With none given it is measured with zdotc
    first.  The axis is assumed unit-norm up to rounding (it is
    F^(x)n |0> in the search loop); no per-call normalization check.
    """
    if axis_state.shape != s.shape:
        raise ValueError(f"shape mismatch: axis {axis_state.shape} vs state {s.shape}")
    if overlap is None:
        overlap = zdotc(axis_state.amps, s.amps)
    # zaxpy updates a contiguous complex128 array in place and returns it;
    # for any other array f2py returns an updated copy, so assign it back.
    s.amps = zaxpy(axis_state.amps, s.amps, a=(np.exp(1j * phi) - 1.0) * overlap)
    return s


def grover_step(
    s: StateVector,
    marked: IndexLike,
    phi_m: float,
    phi_a: float,
    axis: StateVector,
    overlap: complex | None = None,
) -> StateVector:
    """One search iteration: oracle at the marked index, then diffusion.

    ``overlap`` is passed on to the diffusion: <axis|O s>, the overlap
    after the oracle kick, if the caller carries it.
    """
    oracle(s, marked, phi_m)
    diffusion_direct(s, axis, phi_a, overlap)
    return s
