import dataclasses

import numpy as np
import pytest

from quditsearch.fgates import householder_f
from quditsearch.register import (
    BasisIndex,
    QuditShape,
    StateVector,
    basis_state,
    population,
)
from quditsearch.reflections import diffusion_direct

from helpers import inner_product


def test_shape_validation():
    with pytest.raises(ValueError, match="d >= 2"):
        QuditShape(1, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        QuditShape(3, 0)
    assert QuditShape(3, 5).N == 243
    assert QuditShape(2, 10).N == 1024


def test_shape_rejects_oversized_register():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        QuditShape(2, 40)
    # the BLAS step kernels take a 32-bit length: N = 2**31 is one too many
    with pytest.raises(ValueError, match="2\\*\\*31 - 1"):
        QuditShape(2, 31)
    assert QuditShape(3, 19).N == 3**19


def test_basis_state_qutrit_ground():
    s = basis_state(QuditShape(3, 1), 0)
    np.testing.assert_array_equal(s.amps, [1, 0, 0])
    assert s.norm() == 1.0


def test_basis_state_flat_index():
    shape = QuditShape(3, 2)
    x = BasisIndex.from_flat(shape, 3)
    assert x.flat == 3
    s = basis_state(shape, x.flat)
    assert s.amps[3] == 1.0
    assert np.count_nonzero(s.amps) == 1


def test_basis_index_out_of_range():
    shape = QuditShape(3, 2)
    with pytest.raises(ValueError, match="outside"):
        basis_state(shape, 9)
    with pytest.raises(ValueError, match="outside"):
        BasisIndex.from_flat(shape, -1)
    with pytest.raises(ValueError, match="outside"):
        BasisIndex.from_flat(shape, 9)


def test_inner_product_unit_state():
    rng = np.random.default_rng(5)
    shape = QuditShape(3, 2)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    s = StateVector(shape, amps)
    assert abs(inner_product(s, s) - 1.0) < 1e-12


def test_inner_product_orthogonal_basis_states():
    shape = QuditShape(3, 2)
    a = basis_state(shape, 2)
    b = basis_state(shape, 7)
    assert inner_product(a, b) == 0.0


def test_inner_product_overlap():
    shape = QuditShape(2, 1)
    a = StateVector(shape, np.array([1.0, 0.0]))
    b = StateVector(shape, np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(inner_product(a, b) - 1 / np.sqrt(2)) < 1e-15


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    shape = QuditShape(3, 2)
    a = StateVector(shape, rng.normal(size=9) + 1j * rng.normal(size=9))
    b = StateVector(shape, rng.normal(size=9) + 1j * rng.normal(size=9))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)


def test_inner_product_self_is_squared_norm():
    rng = np.random.default_rng(17)
    shape = QuditShape(2, 3)
    a = StateVector(shape, rng.normal(size=8) + 1j * rng.normal(size=8))
    ip = inner_product(a, a)
    assert abs(ip.imag) < 1e-12
    assert abs(ip.real - a.norm() ** 2) < 1e-12


def test_inner_product_shape_mismatch():
    a = basis_state(QuditShape(2, 2), 0)
    b = basis_state(QuditShape(2, 3), 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        inner_product(a, b)


def test_population_basis_state():
    shape = QuditShape(3, 2)
    assert population(basis_state(shape, 4), 4) == 1.0
    assert population(basis_state(shape, 4), 5) == 0.0


def test_population_equal_superposition():
    shape = QuditShape(3, 5)
    s = StateVector(shape, np.full(243, 243**-0.5, dtype=complex))
    assert population(s, 0) == pytest.approx(1 / 243, abs=1e-15)
    assert population(s, 242) == pytest.approx(0.0041152263374, abs=1e-12)


def test_population_out_of_range():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(ValueError, match="outside"):
        population(s, 4)


def test_state_vector_length_check():
    with pytest.raises(ValueError, match="shape"):
        StateVector(QuditShape(2, 2), np.zeros(3, dtype=complex))


# ---- the amplitude buffer -----------------------------------------------------


def test_state_vector_adopts_a_contiguous_complex_buffer():
    amps = np.full(4, 0.5, dtype=complex)
    assert StateVector(QuditShape(2, 2), amps).amps is amps


def test_state_vector_buffer_cannot_be_rebound():
    s = basis_state(QuditShape(2, 2), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.amps = np.zeros(4, dtype=complex)


def test_read_only_input_gets_its_own_buffer():
    # a row of an FGate's read-only matrix: diffusion_direct must not write through it
    gate = householder_f(3)
    row = gate.matrix[1]
    before = gate.matrix.copy()
    s = StateVector(QuditShape(3, 1), row)
    assert s.amps.flags.writeable and not np.shares_memory(s.amps, gate.matrix)
    diffusion_direct(s, (np.ones(1), np.ones(3) / np.sqrt(3)), 1.1)
    np.testing.assert_array_equal(gate.matrix, before)
    assert not np.array_equal(s.amps, row)


def test_float64_input_becomes_a_complex_buffer():
    # test_diffusion_direct_non_contiguous_view_matches_reference covers a strided input
    shape = QuditShape(3, 2)
    values = np.random.default_rng(3).normal(size=shape.N)
    s = StateVector(shape, values)
    assert s.amps.dtype == np.complex128 and s.amps.flags.c_contiguous
    assert s.amps.flags.writeable and not np.shares_memory(s.amps, values)
    chi = np.ones(shape.N) / 3.0
    expected = values + (np.exp(0.7j) - 1) * np.vdot(chi, values) * chi
    diffusion_direct(s, (np.ones(1), chi), 0.7)
    np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-14)
