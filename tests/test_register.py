import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from quditsearch.engine import (
    ExperimentConfig,
    diffusion_axis,
    run_search,
    run_searches,
)
from quditsearch.fgates import f_column, householder_f, make_f
from quditsearch.register import (
    BasisIndex,
    QuditShape,
    StateVector,
    population,
    _squared_norm,
)
from quditsearch.reflections import axis_overlap, diffusion_direct
from quditsearch.scheduler import deterministic_schedule

from helpers import basis_state, config, inner_product, run_python, start_state


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


NOT_AN_INTEGER = [
    pytest.param(lambda: QuditShape(2.5, 3), "level count d must be", id="d=2.5"),
    pytest.param(lambda: QuditShape(3, 2.0), "qudit count n must be", id="n=2.0"),
    pytest.param(lambda: QuditShape(np.float64(3), 2), "level count d must be", id="d=float64"),
    pytest.param(lambda: BasisIndex(2.5), "flat index must be", id="flat=2.5"),
    pytest.param(lambda: BasisIndex.from_flat(QuditShape(3, 2), 2.7), "flat index must be",
                 id="from_flat=2.7"),
    pytest.param(lambda: BasisIndex.from_flat(QuditShape(3, 2), "4"), "flat index must be",
                 id="from_flat='4'"),
    pytest.param(lambda: ExperimentConfig(QuditShape(3, 2), BasisIndex(2.5),
                                          deterministic_schedule(9)),
                 "flat index must be", id="config"),
    # numpy integers are read as Python ints, so d**n cannot wrap to 0 or below
    pytest.param(lambda: QuditShape(np.int64(2**40), np.int64(2)), "dense-storage limit",
                 id="int64-wraps-to-0"),
    pytest.param(lambda: QuditShape(np.int32(50000), 2), "dense-storage limit",
                 id="int32-wraps-negative"),
]


@pytest.mark.parametrize("build, message", NOT_AN_INTEGER)
def test_register_integers_are_integral(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


# ---- the squared norm -----------------------------------------------------------


def _exact_norm(amps: np.ndarray) -> float:
    """sqrt of the exactly summed squares of the amplitudes' parts."""
    return math.sqrt(math.fsum(np.square(amps.view(np.float64)).tolist()))


def _random_state(shape: QuditShape, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    return StateVector(shape, rng.standard_normal(2 * shape.N).view(np.complex128))


NORM_BITS = """
import numpy as np
from quditsearch.engine import diffusion_axis, superposition_register
from quditsearch.fgates import f_column
from quditsearch.register import QuditShape, StateVector
shape = QuditShape(3, 12)
axis = diffusion_axis(shape, f_column(3, "householder"))
start = superposition_register(shape, axis, np.empty(shape.N, np.complex128))
small = QuditShape(3, 9)
stack = np.random.default_rng(3).standard_normal(6 * small.N).view(np.complex128)
slab = StateVector(small, stack[small.N:2 * small.N])  # run 1 of a stack of 3
print(start.norm().hex(), slab.norm().hex())
"""


def test_norm_bits_do_not_depend_on_blas_threads(monkeypatch):
    # numpy's threaded ddot (np.linalg.norm) read 0.9999999999988199 at the
    # 3^12 start on one thread and 1.0000000000003162 on two
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    unset = run_python(NORM_BITS)
    assert run_python(NORM_BITS, OPENBLAS_NUM_THREADS="1") == unset
    assert unset.count(" ") == 1


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 1), (9, 2), (12, 3), (12, None)])
def test_norm_is_within_two_ulp_of_the_exact_sum(n, seed):
    shape = QuditShape(3, n)
    if seed is None:
        # the Householder start: np.linalg.norm read 1.0000000000003162 here
        # on two BLAS threads, 3.2e-13 off
        s = start_state(shape, make_f(3, "householder"))
    else:
        s = _random_state(shape, seed)
    exact_square = math.fsum(np.square(s.amps.view(np.float64)).tolist())
    assert abs(_squared_norm(s.amps) - exact_square) <= 2 * math.ulp(exact_square)
    exact = _exact_norm(s.amps)
    assert abs(s.norm() - exact) <= 2 * math.ulp(exact)


def test_norm_allocates_no_state_sized_temporary():
    s = _random_state(QuditShape(3, 12), 4)  # 8.1 MiB
    tracemalloc.start()
    try:
        s.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---- the axis overlap -----------------------------------------------------------


OVERLAP_BITS = """
import hashlib
import numpy as np
from quditsearch.engine import diffusion_axis, superposition_register
from quditsearch.fgates import f_column
from quditsearch.reflections import axis_overlap, grover_step
from quditsearch.register import QuditShape, StateVector
def show(overlap):
    print(overlap.real.hex(), overlap.imag.hex())
def start(shape, axis):
    return superposition_register(shape, axis, np.empty(shape.N, np.complex128))
for d, n in ((3, 8), (3, 12), (2, 16)):
    shape = QuditShape(d, n)
    axis = diffusion_axis(shape, f_column(d, "random:5"))
    noise = np.random.default_rng(n).standard_normal(2 * shape.N).view(np.complex128)
    show(axis_overlap(StateVector(shape, noise), axis))
    show(axis_overlap(start(shape, axis), axis))
small = QuditShape(3, 9)
stack = np.random.default_rng(3).standard_normal(6 * small.N).view(np.complex128)
show(axis_overlap(StateVector(small, stack[small.N:2 * small.N]),
                  diffusion_axis(small, f_column(3, "random:5"))))
shape = QuditShape(3, 8)
axis = diffusion_axis(shape, f_column(3, "random:5"))
state = start(shape, axis)
for _ in range(12):
    grover_step(state, 1000, 2.0, axis)  # the overlap measured by axis_overlap each step
print(hashlib.sha256(state.amps.tobytes()).hexdigest())
"""


def test_overlap_bits_do_not_depend_on_blas_threads():
    # numpy's threaded zgemv and zdotc (S @ conj(head), then np.vdot) moved
    # the last bits of these overlaps, and so of the measured-overlap steps
    one = run_python(OVERLAP_BITS, OPENBLAS_NUM_THREADS="1")
    assert run_python(OVERLAP_BITS, OPENBLAS_NUM_THREADS="2") == one
    assert one.count("\n") == 8


@pytest.mark.parametrize("n", [1, 5, 9, 12])
def test_overlap_is_within_its_error_bound_of_the_exact_sum(n):
    shape = QuditShape(3, n)
    s = _random_state(shape, n)
    head, tail = axis = diffusion_axis(shape, f_column(3, "random:5"))
    chi = np.kron(head, tail)
    terms = chi.conj() * s.amps  # each within a few ulp of the exact product
    exact = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    bound = 4 * (tail.size + head.size) * np.finfo(float).eps * np.sum(np.abs(chi * s.amps))
    assert abs(axis_overlap(s, axis) - exact) <= bound


def test_overlap_allocates_no_state_sized_temporary():
    shape = QuditShape(3, 12)
    s = _random_state(shape, 4)  # 8.1 MiB
    head, tail = axis = diffusion_axis(shape, f_column(3, "random:5"))
    tracemalloc.start()
    try:
        axis_overlap(s, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the conjugated tail and the column sums (11.4 KiB each) live together,
    # beside the einsum iterator's and the arrays' headers (about 1.5 KiB)
    assert peak < head.nbytes + tail.nbytes + (4 << 10)


def test_norm_and_searches_run_without_numpy_linalg_norm(monkeypatch):
    # np.linalg.norm runs numpy's threaded BLAS, whose pool then spins
    # against scipy's through the next steps; no state-sized norm may use it
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    s = _random_state(QuditShape(3, 9), 5)
    assert abs(s.norm() - _exact_norm(s.amps)) <= 2 * math.ulp(s.norm())
    schedule = deterministic_schedule(s.shape.N)
    assert run_search(config(3, 9, schedule, marked=100)).peak_population > 0.999
    runs = run_searches([config(3, 9, schedule, marked=m) for m in (0, 7777, 19682)])
    assert [t.peak_step for t in runs] == [schedule.steps] * 3
