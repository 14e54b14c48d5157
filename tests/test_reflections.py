import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quditsearch import engine, reflections
from quditsearch.engine import (
    diffusion_axis,
    run_search,
    run_searches,
    superposition_register,
)
from quditsearch.fgates import householder_f
from quditsearch.register import QuditShape, StateVector, basis_state
from quditsearch.reflections import (
    apply_local_gate,
    diffusion_direct,
    grover_step,
    oracle,
    unitarity_defect,
)
from quditsearch.scheduler import deterministic_schedule

from helpers import copy_state, diffusion_via_gates, hadamard, needs_numpys_zgeru, run_python


def random_state(shape, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape.N) + 1j * rng.normal(size=shape.N)
    return StateVector(shape, amps / np.linalg.norm(amps))


def flat(chi):
    """A general axis chi as the Kronecker pair (ones(1), chi)."""
    return np.ones(1), chi.amps


def dense_reflection(axis, phi):
    axis = np.asarray(axis, dtype=complex)
    return np.eye(axis.size) + (np.exp(1j * phi) - 1) * np.outer(axis, axis.conj())


# ---- diffusion_direct as a general reflection M(chi, phi) --------------------


def test_reflection_zero_phase_is_identity():
    shape = QuditShape(3, 2)
    s = random_state(shape, 1)
    before = s.amps.copy()
    diffusion_direct(s, flat(random_state(shape, 2)), 0.0)
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_reflection_of_its_own_axis():
    shape = QuditShape(2, 2)
    m = basis_state(shape, 2)
    s = basis_state(shape, 2)
    diffusion_direct(s, flat(m), np.pi)
    np.testing.assert_allclose(s.amps, -m.amps, atol=1e-15)


def test_reflection_matches_hand_built_2x2():
    # 1 - 2|chi><chi| with chi = (1,1)/sqrt(2) is [[0,-1],[-1,0]]
    shape = QuditShape(2, 1)
    axis = StateVector(shape, np.array([1.0, 1.0]) / np.sqrt(2))
    s = StateVector(shape, np.array([1.0, 0.0]))
    diffusion_direct(s, flat(axis), np.pi)
    np.testing.assert_allclose(s.amps, [0.0, -1.0], atol=1e-15)


def test_reflection_shape_mismatch():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        diffusion_direct(s, flat(basis_state(QuditShape(2, 3), 0)), np.pi)


def unit_state(data, shape, label):
    """A drawn unit vector of the register's size."""
    amps = data.draw(arrays(np.complex128, shape.N, elements=st.complex_numbers(max_magnitude=1.0)),
                     label=label)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return StateVector(shape, amps / norm)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 4), n=st.integers(1, 2), phi=st.floats(-2 * np.pi, 2 * np.pi),
       data=st.data())
def test_reflection_then_inverse_property(d, n, phi, data):
    # M(chi, -phi) undoes M(chi, phi), and each keeps the state on the unit sphere
    shape = QuditShape(d, n)
    s = unit_state(data, shape, "state")
    axis = unit_state(data, shape, "axis")
    before = s.amps.copy()
    diffusion_direct(s, flat(axis), phi)
    assert abs(s.norm() - 1.0) < 1e-12
    diffusion_direct(s, flat(axis), -phi)
    assert abs(s.norm() - 1.0) < 1e-12
    assert np.max(np.abs(s.amps - before)) < 1e-12


def test_norm_preserved_over_many_random_reflections():
    shape = QuditShape(3, 2)
    s = random_state(shape, 3)
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        amps = rng.normal(size=shape.N) + 1j * rng.normal(size=shape.N)
        axis = StateVector(shape, amps / np.linalg.norm(amps))
        diffusion_direct(s, flat(axis), rng.uniform(0, 2 * np.pi))
    assert abs(s.norm() - 1.0) < 1e-9


# ---- oracle ------------------------------------------------------------


def test_oracle_sign_flip_pattern():
    shape = QuditShape(2, 2)
    s = StateVector(shape, np.array([1.0, 1.0, 1.0, 1.0]) / 2)
    oracle(s, 2, np.pi)
    np.testing.assert_allclose(s.amps, np.array([1, 1, -1, 1]) / 2, atol=1e-15)


def test_oracle_full_phase_wrap():
    shape = QuditShape(3, 2)
    s = random_state(shape, 9)
    before = s.amps.copy()
    oracle(s, 5, 2 * np.pi)
    np.testing.assert_allclose(s.amps, before, atol=1e-12)


def test_oracle_on_equal_superposition():
    shape = QuditShape(2, 2)
    s = StateVector(shape, np.full(4, 0.5, dtype=complex))
    oracle(s, 0, np.pi)
    np.testing.assert_allclose(s.amps, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_oracle_leaves_other_amplitudes_bit_identical():
    shape = QuditShape(3, 3)
    s = random_state(shape, 13)
    before = s.amps.copy()
    oracle(s, 11, 1.234)
    mask = np.ones(shape.N, dtype=bool)
    mask[11] = False
    assert np.array_equal(s.amps[mask], before[mask])


def test_oracle_out_of_range():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(ValueError, match="outside"):
        oracle(s, 4, np.pi)


# ---- apply_local_gate --------------------------------------------------


def test_local_identity_gate():
    shape = QuditShape(3, 3)
    s = random_state(shape, 21)
    before = s.amps.copy()
    apply_local_gate(s, np.eye(3), 1)
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_local_hadamard_single_qubit():
    s = basis_state(QuditShape(2, 1), 0)
    apply_local_gate(s, hadamard(), 0)
    np.testing.assert_allclose(s.amps, np.array([1, 1]) / np.sqrt(2), atol=1e-15)


def test_local_hadamard_both_qubits():
    s = basis_state(QuditShape(2, 2), 0)
    apply_local_gate(s, hadamard(), 0)
    apply_local_gate(s, hadamard(), 1)
    np.testing.assert_allclose(s.amps, np.full(4, 0.5), atol=1e-15)


def test_local_gate_matches_kron_embedding():
    shape = QuditShape(3, 3)
    rng = np.random.default_rng(31)
    g, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for k in range(3):
        s = random_state(shape, 40 + k)
        expected = np.kron(
            np.kron(np.eye(3**k), g), np.eye(3 ** (2 - k))
        ) @ s.amps
        apply_local_gate(s, g, k)
        np.testing.assert_allclose(s.amps, expected, atol=1e-12)


def test_local_gate_position_out_of_range():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(ValueError, match="position"):
        apply_local_gate(s, hadamard(), 2)
    with pytest.raises(ValueError, match="gate has shape"):
        apply_local_gate(s, np.eye(3), 0)


# ---- diffusion ----------------------------------------------------------


def test_diffusion_via_gates_matches_dense_sandwich():
    # H^(x)2 M(0, pi) H^(x)2 applied densely
    shape = QuditShape(2, 2)
    h = hadamard()
    h2 = np.kron(h, h)
    m0 = np.diag([np.exp(1j * np.pi), 1, 1, 1])
    dense = h2 @ m0 @ h2
    s = random_state(shape, 55)
    expected = dense @ s.amps
    diffusion_via_gates(s, h, np.pi)
    np.testing.assert_allclose(s.amps, expected, atol=1e-12)


def test_diffusion_via_gates_zero_phase():
    shape = QuditShape(3, 2)
    s = random_state(shape, 56)
    before = s.amps.copy()
    diffusion_via_gates(s, householder_f(3).matrix, 0.0)
    np.testing.assert_allclose(s.amps, before, atol=1e-12)


def test_diffusion_via_gates_on_own_axis():
    shape = QuditShape(3, 2)
    f = householder_f(3).matrix
    s = basis_state(shape, 0)
    for k in range(2):
        apply_local_gate(s, f, k)
    axis = s.amps.copy()
    phi = 1.1
    diffusion_via_gates(s, f, phi)
    np.testing.assert_allclose(s.amps, np.exp(1j * phi) * axis, atol=1e-12)


def test_diffusion_via_gates_rejects_non_unitary():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(ValueError, match="unitary"):
        diffusion_via_gates(s, np.array([[1.0, 0.0], [1.0, 1.0]]), np.pi)


def test_diffusion_direct_agrees_with_via_gates():
    shape = QuditShape(3, 2)
    f = householder_f(3).matrix
    axis = basis_state(shape, 0)
    for k in range(2):
        apply_local_gate(axis, f, k)
    a = random_state(shape, 57)
    b = copy_state(a)
    diffusion_direct(a, flat(axis), np.pi)
    diffusion_via_gates(b, f, np.pi)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-10


def test_diffusion_direct_orthogonal_state_unchanged():
    shape = QuditShape(2, 1)
    axis = StateVector(shape, np.array([1.0, 1.0]) / np.sqrt(2))
    s = StateVector(shape, np.array([1.0, -1.0]) / np.sqrt(2))
    before = s.amps.copy()
    diffusion_direct(s, flat(axis), np.pi)
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_diffusion_direct_own_axis():
    shape = QuditShape(3, 1)
    axis = StateVector(shape, np.ones(3, dtype=complex) / np.sqrt(3))
    s = copy_state(axis)
    phi = 2.2
    diffusion_direct(s, flat(axis), phi)
    np.testing.assert_allclose(s.amps, np.exp(1j * phi) * axis.amps, atol=1e-14)


def test_diffusion_direct_updates_contiguous_state_in_place():
    shape = QuditShape(3, 4)
    axis = random_state(shape, 60)
    s = random_state(shape, 61)
    buffer = s.amps
    expected = dense_reflection(axis.amps, 1.3) @ buffer
    diffusion_direct(s, flat(axis), 1.3)
    assert s.amps is buffer
    np.testing.assert_allclose(buffer, expected, rtol=0, atol=1e-14)


def test_diffusion_direct_non_contiguous_view_matches_reference():
    # a strided view is copied into the state's own contiguous buffer, which
    # the update then changes in place; the view's backing stays as it was
    shape = QuditShape(3, 4)
    axis = random_state(shape, 62)
    amps = random_state(shape, 63).amps
    backing = np.zeros(2 * shape.N, dtype=complex)
    backing[::2] = amps
    s = StateVector(shape, backing[::2])
    assert s.amps.flags.c_contiguous
    phi = 2.4
    expected = amps + (np.exp(1j * phi) - 1) * np.vdot(axis.amps, amps) * axis.amps
    diffusion_direct(s, flat(axis), phi)
    np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(backing[::2], amps)


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("overlap", ["measured", "passed"])
@pytest.mark.parametrize("k", range(5))
def test_factored_diffusion_matches_dense_formula(k, overlap, layout):
    # chi = kron(head, tail) with head of 3**k entries; k = 0 is (ones(1), chi)
    shape = QuditShape(3, 4)
    rng = np.random.default_rng(70 + k)
    head, tail = (np.ones(1) if m == 0 else rng.normal(size=m) + 1j * rng.normal(size=m)
                  for m in (3**k if k else 0, 3 ** (4 - k)))
    head, tail = head / np.linalg.norm(head), tail / np.linalg.norm(tail)
    chi = np.kron(head, tail)
    s = random_state(shape, 71)
    if layout == "strided":  # built from a strided view: the state copies it
        backing = np.zeros(2 * shape.N, dtype=complex)
        backing[::2] = s.amps
        s = StateVector(shape, backing[::2])
    phi = 2.1
    known = np.vdot(chi, s.amps)
    expected = s.amps + (np.exp(1j * phi) - 1) * known * chi
    diffusion_direct(s, (head, tail), phi, known if overlap == "passed" else None)
    np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-14)


# ---- grover_step ---------------------------------------------------------


def test_grover_step_perfect_single_iteration_n4():
    # N=4 with phi=pi: one step moves the equal superposition onto the target
    shape = QuditShape(2, 2)
    axis = StateVector(shape, np.full(4, 0.5, dtype=complex))
    s = copy_state(axis)
    grover_step(s, 3, np.pi, flat(axis))
    assert abs(s.amps[3]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_grover_step_zero_phases_is_identity():
    shape = QuditShape(2, 2)
    axis = StateVector(shape, np.full(4, 0.5, dtype=complex))
    s = random_state(shape, 58)
    before = s.amps.copy()
    grover_step(s, 1, 0.0, flat(axis))
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_grover_step_allocates_under_one_mebibyte():
    # the overlap and the in-place update make no N-sized temporary
    shape = QuditShape(3, 12)
    axis = diffusion_axis(shape, householder_f(3))
    s = superposition_register(shape, householder_f(3))
    grover_step(s, 12345, 2.0, axis)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        grover_step(s, 12345, 2.0, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline < 1 << 20, f"step allocated {peak - baseline} bytes"


def test_state_stays_in_two_dimensional_subspace():
    # span{|marked>, F^(x)n|0>} is invariant under the phase-matched step
    shape = QuditShape(3, 3)
    f = householder_f(3).matrix
    s = basis_state(shape, 0)
    for k in range(3):
        apply_local_gate(s, f, k)
    axis = copy_state(s)
    marked = 7
    m = basis_state(shape, marked)
    basis = np.linalg.qr(np.column_stack([m.amps, axis.amps]))[0]
    phi = 2.0
    for _ in range(30):
        grover_step(s, marked, phi, flat(axis))
        residual = s.amps - basis @ (basis.conj().T @ s.amps)
        assert np.linalg.norm(residual) < 1e-9


def test_sandwich_identity_dense():
    # H^(x)n M(0, phi) H^(x)n equals the reflection about the uniform vector
    h = hadamard()
    for n in (1, 2, 3):
        hn = h
        for _ in range(n - 1):
            hn = np.kron(hn, h)
        N = 2**n
        aver = np.full(N, N**-0.5)
        for phi in (np.pi / 2, np.pi):
            m0 = np.eye(N, dtype=complex)
            m0[0, 0] = np.exp(1j * phi)
            lhs = hn @ m0 @ hn
            rhs = dense_reflection(aver, phi)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unitarity_defect_helper():
    assert unitarity_defect(hadamard()) < 1e-15
    assert unitarity_defect(np.array([[1.0, 0.0], [1.0, 1.0]])) > 0.5


# ---- the step's rank-1 kernel ---------------------------------------------


RANK1_AGAINST_SCIPY = """
import numpy as np
from scipy.linalg.blas import zgeru
from quditsearch import reflections
rng = np.random.default_rng(5)
def cvec(*size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)
# (rows, head entries, runs): a tiled 3^12 block, 8 stacked runs at 3^9, and
# a general axis (ones(1), chi) at N = 3^9, where m = N; each is big enough
# for OpenBLAS to split zger over its threads
for m, w, k in [(729, 179, 1), (243, 81, 8), (3**9, 1, 1)]:
    ours = np.asfortranarray(cvec(m, k * w))
    theirs = ours.copy(order="F")
    tail, head = cvec(m), cvec(1, w)
    update = reflections.rank1_kernel(ours, tail, head)
    same = True
    for _ in range(50):
        alpha = cvec(k, 1)
        update(alpha)
        theirs = zgeru(1.0, tail, np.multiply(head, alpha).ravel(), 1, 1, theirs, 1, 1, 1)
        same = same and np.array_equal(ours, theirs)
    print(same)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rank1_update_matches_scipy_zgeru_to_the_bit(threads):
    # scipy's f2py zgeru is the reference: 50 updates with alpha = 1 and the
    # head pre-scaled give the same bits
    assert run_python(RANK1_AGAINST_SCIPY, OPENBLAS_NUM_THREADS=threads).split() == ["True"] * 3


@pytest.mark.parametrize("matrix", ["C-ordered", "strided", "read-only", "complex64"])
def test_rank1_kernel_refuses_a_matrix_it_cannot_write_in_place(matrix):
    # zgeru writes through a raw pointer: a matrix it cannot update in place
    # raises, and the state under it keeps its amplitudes
    shape = QuditShape(3, 4)
    s = random_state(shape, 80)
    before = s.amps.copy()
    view = {
        "C-ordered": s.amps.reshape(9, 9),
        "strided": s.amps.reshape((9, 9), order="F")[::2],
        "read-only": np.lib.stride_tricks.as_strided(
            s.amps.reshape((9, 9), order="F"), writeable=False),
        "complex64": s.amps.reshape((9, 9), order="F").astype(np.complex64, order="F"),
    }[matrix]
    rows = view.shape[0]
    with pytest.raises(ValueError, match="Fortran-contiguous, writeable complex128"):
        reflections.rank1_kernel(view, np.ones(rows), np.ones(9))
    np.testing.assert_array_equal(s.amps, before)


def test_rank1_kernel_refuses_factors_of_the_wrong_size():
    matrix = np.zeros((9, 9), dtype=complex, order="F")
    # (tail, head) sizes: more head entries than columns, a head whose size
    # does not divide the columns, a tail shorter than a column, and an
    # empty head (a ValueError, not a ZeroDivisionError)
    for tail, head in [(9, 18), (9, 4), (8, 9), (9, 0)]:
        with pytest.raises(ValueError, match="shape mismatch"):
            reflections.rank1_kernel(matrix, np.ones(tail), np.ones(head))


def test_missing_zgeru_names_numpys_blas(monkeypatch):
    # neither numpy's BLAS nor scipy has a zgeru for the step
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    monkeypatch.setattr(reflections, "_ZGERU", "no_such_zgeru_64_")
    monkeypatch.setitem(sys.modules, "scipy.linalg.blas", None)
    with pytest.raises(ImportError, match=f"BLAS \\({re.escape(blas['name'])} .*scipy"):
        reflections._zgeru.__wrapped__()  # past the cache, which may hold the function


@pytest.fixture
def zgeru_cache():
    """Empties the zgeru lookup's cache before and after the test."""
    reflections._zgeru.cache_clear()
    yield
    reflections._zgeru.cache_clear()


@needs_numpys_zgeru
def test_missing_zgeru_falls_back_to_scipys_with_the_same_bits(monkeypatch, zgeru_cache):
    # a numpy whose BLAS exports no zgeru (Accelerate, MKL, Windows) takes
    # scipy's: every path through rank1_kernel's update keeps its bits
    from scipy.linalg.blas import zgeru

    from helpers import config

    def runs():
        stacked = run_searches([config(3, 8, deterministic_schedule(3**8), marked=m)
                                for m in (5, 77, 6560)])
        with monkeypatch.context() as tiles:
            tiles.setattr(engine, "_BLOCK_BYTES", 16 * 27 * 4)
            tiled = run_search(config(3, 6, deterministic_schedule(3**6), marked=5))
        s, chi = random_state(QuditShape(3, 6), 84), random_state(QuditShape(3, 6), 85)
        for step in range(10):
            grover_step(s, step, 1.3, flat(chi))
        return [t.populations for t in (*stacked, tiled)] + [s.amps]

    numpys = runs()
    monkeypatch.setattr(reflections, "_ZGERU", "no_such_zgeru_64_")
    reflections._zgeru.cache_clear()
    assert reflections._zgeru() is zgeru
    for ours, theirs in zip(numpys, runs(), strict=True):
        np.testing.assert_array_equal(ours, theirs)


def test_diffusion_direct_binds_each_call_to_its_state_and_axis():
    # diffusion_direct binds the kernel on every call: interleaved states,
    # other tails and a tail changed in place each get their own reflection,
    # and no binding outlives the call to keep a state alive
    shape = QuditShape(3, 4)
    a, b = random_state(shape, 81), random_state(shape, 82)
    chi, other = random_state(shape, 83).amps, random_state(shape, 86).amps
    for s, axis in [(a, chi), (a, chi), (b, chi), (a, other), (a, chi)]:
        expected = dense_reflection(axis, 0.7) @ s.amps
        diffusion_direct(s, (np.ones(1), axis), 0.7)
        np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-14)
        chi *= np.exp(0.4j)
    amps = weakref.ref(a.amps)
    del a, s
    assert amps() is None
