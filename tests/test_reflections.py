import tracemalloc

import numpy as np
import pytest

from quditsearch.engine import superposition_register
from quditsearch.fgates import householder_f
from quditsearch.register import QuditShape, StateVector, basis_state
from quditsearch.reflections import (
    Reflection,
    apply_local_gate,
    apply_reflection,
    diffusion_direct,
    diffusion_via_gates,
    grover_step,
    oracle,
    unitarity_defect,
)

from helpers import hadamard


def random_state(shape, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape.N) + 1j * rng.normal(size=shape.N)
    return StateVector(shape, amps / np.linalg.norm(amps))


def dense_reflection(axis, phi):
    axis = np.asarray(axis, dtype=complex)
    return np.eye(axis.size) + (np.exp(1j * phi) - 1) * np.outer(axis, axis.conj())


# ---- apply_reflection -------------------------------------------------


def test_reflection_zero_phase_is_identity():
    shape = QuditShape(3, 2)
    s = random_state(shape, 1)
    before = s.amps.copy()
    apply_reflection(s, Reflection(random_state(shape, 2), 0.0))
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_reflection_of_its_own_axis():
    shape = QuditShape(2, 2)
    m = basis_state(shape, 2)
    s = basis_state(shape, 2)
    apply_reflection(s, Reflection(m, np.pi))
    np.testing.assert_allclose(s.amps, -m.amps, atol=1e-15)


def test_reflection_matches_hand_built_2x2():
    # 1 - 2|chi><chi| with chi = (1,1)/sqrt(2) is [[0,-1],[-1,0]]
    shape = QuditShape(2, 1)
    axis = StateVector(shape, np.array([1.0, 1.0]) / np.sqrt(2))
    s = StateVector(shape, np.array([1.0, 0.0]))
    apply_reflection(s, Reflection(axis, np.pi))
    np.testing.assert_allclose(s.amps, [0.0, -1.0], atol=1e-15)


def test_reflection_requires_unit_axis():
    shape = QuditShape(2, 1)
    with pytest.raises(ValueError, match="unit norm"):
        Reflection(StateVector(shape, np.array([1.0, 1.0])), np.pi)


def test_reflection_shape_mismatch():
    s = basis_state(QuditShape(2, 2), 0)
    r = Reflection(basis_state(QuditShape(2, 3), 0), np.pi)
    with pytest.raises(ValueError, match="shape mismatch"):
        apply_reflection(s, r)


def test_reflection_then_inverse_restores_state():
    shape = QuditShape(3, 3)
    rng = np.random.default_rng(7)
    for trial in range(20):
        s = random_state(shape, 100 + trial)
        before = s.amps.copy()
        r = Reflection(random_state(shape, 200 + trial), rng.uniform(0, 2 * np.pi))
        apply_reflection(s, r)
        apply_reflection(s, r.inverse())
        assert np.max(np.abs(s.amps - before)) < 1e-10


def test_norm_preserved_over_many_random_reflections():
    shape = QuditShape(3, 2)
    s = random_state(shape, 3)
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        amps = rng.normal(size=shape.N) + 1j * rng.normal(size=shape.N)
        axis = StateVector(shape, amps / np.linalg.norm(amps))
        apply_reflection(s, Reflection(axis, rng.uniform(0, 2 * np.pi)))
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
    b = a.copy()
    diffusion_direct(a, axis, np.pi)
    diffusion_via_gates(b, f, np.pi)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-10


def test_diffusion_direct_orthogonal_state_unchanged():
    shape = QuditShape(2, 1)
    axis = StateVector(shape, np.array([1.0, 1.0]) / np.sqrt(2))
    s = StateVector(shape, np.array([1.0, -1.0]) / np.sqrt(2))
    before = s.amps.copy()
    diffusion_direct(s, axis, np.pi)
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_diffusion_direct_own_axis():
    shape = QuditShape(3, 1)
    axis = StateVector(shape, np.ones(3, dtype=complex) / np.sqrt(3))
    s = axis.copy()
    phi = 2.2
    diffusion_direct(s, axis, phi)
    np.testing.assert_allclose(s.amps, np.exp(1j * phi) * axis.amps, atol=1e-14)


def test_diffusion_direct_updates_contiguous_state_in_place():
    shape = QuditShape(3, 4)
    axis = random_state(shape, 60)
    s = random_state(shape, 61)
    buffer = s.amps
    diffusion_direct(s, axis, 1.3)
    assert s.amps is buffer


def test_diffusion_direct_non_contiguous_view_matches_reference():
    shape = QuditShape(3, 4)
    axis = random_state(shape, 62)
    s = random_state(shape, 63)
    backing = np.zeros(2 * shape.N, dtype=complex)
    backing[::2] = s.amps
    s.amps = backing[::2]  # a strided view, as a caller may assign
    assert not s.amps.flags.c_contiguous
    phi = 2.4
    expected = s.amps + (np.exp(1j * phi) - 1) * np.vdot(axis.amps, s.amps) * axis.amps
    diffusion_direct(s, axis, phi)
    np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-14)


# ---- grover_step ---------------------------------------------------------


def test_grover_step_perfect_single_iteration_n4():
    # N=4 with phi=pi: one step moves the equal superposition onto the target
    shape = QuditShape(2, 2)
    axis = StateVector(shape, np.full(4, 0.5, dtype=complex))
    s = axis.copy()
    grover_step(s, 3, np.pi, np.pi, axis)
    assert abs(s.amps[3]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_grover_step_zero_phases_is_identity():
    shape = QuditShape(2, 2)
    axis = StateVector(shape, np.full(4, 0.5, dtype=complex))
    s = random_state(shape, 58)
    before = s.amps.copy()
    grover_step(s, 1, 0.0, 0.0, axis)
    np.testing.assert_allclose(s.amps, before, atol=1e-15)


def test_grover_step_allocates_under_one_mebibyte():
    # the overlap and the in-place update make no N-sized temporary
    shape = QuditShape(3, 12)
    axis = superposition_register(shape, householder_f(3))
    s = axis.copy()
    grover_step(s, 12345, 2.0, 2.0, axis)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        grover_step(s, 12345, 2.0, 2.0, axis)
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
    axis = s.copy()
    marked = 7
    m = basis_state(shape, marked)
    basis = np.linalg.qr(np.column_stack([m.amps, axis.amps]))[0]
    phi = 2.0
    for _ in range(30):
        grover_step(s, marked, phi, phi, axis)
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
