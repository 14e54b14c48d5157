import math

import numpy as np
import pytest

from quditsearch.fgates import (
    MAX_GATE_D,
    FGate,
    FValidation,
    coupling_design,
    dft,
    f_column,
    householder_f,
    make_f,
    random_phase_f,
    validate_f,
)

from quditsearch.scheduler import deterministic_schedule

from helpers import config, hadamard

ALL_KINDS = ["householder", "dft", "random:7"]


# ---- coupling_design ----------------------------------------------------


def test_coupling_design_d4_is_uniform_half():
    om = coupling_design(4)
    np.testing.assert_allclose(om, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_coupling_design_d3():
    om = coupling_design(3)
    assert om[0] == pytest.approx(0.459700843380983, abs=1e-12)
    np.testing.assert_allclose(om[1:], 0.627963030199554, atol=1e-12)
    assert np.sum(om**2) == pytest.approx(1.0, abs=1e-12)


def test_coupling_design_d2():
    om = coupling_design(2)
    assert om[0] == pytest.approx(0.382683432365090, abs=1e-12)
    assert om[1] == pytest.approx(0.923879532511287, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_coupling_design_unit_rms(d):
    assert np.sum(coupling_design(d) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coupling_design_rejects_small_d():
    with pytest.raises(ValueError, match="d >= 2"):
        coupling_design(1)


# ---- householder_f --------------------------------------------------------


def test_householder_f_d2_first_column():
    f = householder_f(2)
    np.testing.assert_allclose(
        f.matrix[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-14
    )


def test_householder_f_d3_column_entries():
    f = householder_f(3)
    assert f.matrix[0, 0] == pytest.approx(3**-0.5, abs=1e-14)
    np.testing.assert_allclose(f.matrix[1:, 0], -(3**-0.5), atol=1e-14)
    np.testing.assert_allclose(np.abs(f.matrix[:, 0]), 3**-0.5, atol=1e-14)


@pytest.mark.parametrize("d", range(2, 17))
def test_householder_f_involution(d):
    f = householder_f(d).matrix
    np.testing.assert_allclose(f @ f, np.eye(d), atol=1e-12)
    # real symmetric: F = F^T = F^dagger
    np.testing.assert_allclose(f, f.T.conj(), atol=1e-14)


# ---- dft -------------------------------------------------------------------


def test_dft_d2_is_hadamard():
    np.testing.assert_allclose(dft(2).matrix, hadamard(), atol=1e-15)


def test_dft_d4_entry():
    assert dft(4).matrix[1, 1] == pytest.approx(0.5j, abs=1e-15)


@pytest.mark.parametrize("d", range(2, 17))
def test_dft_unitary(d):
    m = dft(d).matrix
    np.testing.assert_allclose(m @ m.conj().T, np.eye(d), atol=1e-12)


# ---- random_phase_f ----------------------------------------------------------


def test_random_phase_f_deterministic():
    a = random_phase_f(5, 42).matrix
    b = random_phase_f(5, 42).matrix
    np.testing.assert_array_equal(a, b)
    c = random_phase_f(5, 43).matrix
    assert np.max(np.abs(a - c)) > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_random_phase_f_first_column_moduli(seed):
    m = random_phase_f(6, seed).matrix
    np.testing.assert_allclose(np.abs(m[:, 0]), 6**-0.5, atol=1e-12)


# ---- validate_f ----------------------------------------------------------------


def test_validate_householder_passes():
    assert validate_f(householder_f(5)).passed


def test_validate_identity_fails_column_contract():
    report = validate_f(FGate(np.eye(3)))
    assert not report.passed
    assert report.unitarity_defect < 1e-15
    assert report.column_deviation > 0.4


def test_validation_passes_iff_both_defects_are_below_1e_10():
    assert FValidation(9e-11, 9e-11).passed
    assert not FValidation(1e-10, 0.0).passed
    assert not FValidation(0.0, 1e-10).passed
    assert not FValidation(math.nan, 0.0).passed


def test_validate_dft_passes():
    assert validate_f(dft(7)).passed


def test_validate_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        validate_f(FGate(np.ones((2, 3))))


@pytest.mark.parametrize("d", range(2, 17))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_equal_moduli_contract(d, kind):
    report = validate_f(make_f(d, kind))
    assert report.unitarity_defect < 1e-10
    assert report.column_deviation < 1e-12


# ---- make_f / FGate --------------------------------------------------------------


def test_make_f_parses_random_seed():
    for kind, built in [
        ("random:9", random_phase_f(3, 9)),
        ("householder", householder_f(3)),
        ("dft", dft(3)),
    ]:
        np.testing.assert_array_equal(make_f(3, kind).matrix, built.matrix)


def test_make_f_rejects_unknown_kind():
    for build in (make_f, f_column):
        with pytest.raises(ValueError, match="unknown F kind"):
            build(3, "haar")
        # None raised an AttributeError from its missing startswith
        with pytest.raises(ValueError, match="unknown F kind None"):
            build(3, None)
    with pytest.raises(ValueError, match="unknown F kind None"):
        config(3, 2, deterministic_schedule(9), f_kind=None)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_make_f_refuses_a_gate_above_the_limit(kind):
    for build in (make_f, f_column):
        with pytest.raises(ValueError, match=f"d {MAX_GATE_D + 1} exceeds the limit {MAX_GATE_D}"):
            build(MAX_GATE_D + 1, kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("d", [2.5, 3.0, "3", None])
def test_make_f_reads_d_as_an_integer(d, kind):
    # np.arange(2.5) made a 3 x 3 dft of column moduli 1/sqrt(2.5), 3.0
    # failed in numpy with a TypeError that did not name d, and "3" and
    # None failed with a TypeError from the comparison with MAX_GATE_D
    for build in (make_f, f_column):
        with pytest.raises(ValueError, match=f"level count d must be an integer, got {d!r}"):
            build(d, kind)


@pytest.mark.parametrize("kind", ["householder", "dft", "random:3", "random:5", "random:11",
                                  "random:2147483647"])
def test_f_column_is_the_gates_first_column_to_the_bit(kind):
    # the same floating-point operations on the first column's d entries:
    # every golden search output rests on this equality
    for d in [*range(2, 65), 1000, MAX_GATE_D]:
        column, matrix = f_column(d, kind), make_f(d, kind).matrix
        assert column.dtype == np.complex128 and column.shape == (d,)
        assert column.tobytes() == matrix[:, 0].tobytes(), d


def test_f_column_refuses_what_make_f_refuses():
    for d, kind in [(1, "dft"), (1, "householder"), (0, "random:3")]:
        with pytest.raises(ValueError, match="needs d >= 2"):
            f_column(d, kind)
    with pytest.raises(ValueError, match="random:SEED needs an integer seed"):
        f_column(3, "random:-1")


@pytest.mark.parametrize("build", [coupling_design, dft, householder_f])
def test_f_constructors_read_d_as_an_integer(build):
    with pytest.raises(ValueError, match="level count d must be an integer, got 3.0"):
        build(3.0)
    # a numpy integer is an integer: the same gate, bit for bit
    built, reference = build(np.int64(3)), build(3)
    assert getattr(built, "matrix", built).tobytes() == getattr(reference, "matrix", reference).tobytes()


def test_fgate_matrix_is_immutable():
    f = householder_f(3)
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 0.0
