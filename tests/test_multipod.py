import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, null_space
from scipy.optimize import minimize

from quditsearch import multipod
from quditsearch.fgates import coupling_design, householder_f
from quditsearch.multipod import (
    PULSE_SHAPES,
    _ENVELOPES,
    _commutator_basis,
    _expm,
    _gauged_terms,
    _grid_coefficients,
    _half_window,
    _magnus_generators,
    _ordered_product,
    LeakageError,
    MAX_DETUNING,
    MAX_PULSE_D,
    MAX_RMS_AREA,
    Propagator,
    PulseJob,
    T_MAX,
    analytic_sech_phase,
    extract_reflection,
    propagate,
    verify_f_pulse,
    wrap_phase,
)
from quditsearch.reflections import unitarity_defect

from helpers import (
    grid_nodes,
    magnus_coefficients,
    magnus_generators,
    phase_distance,
    real_form,
    run_python,
    stacked_commutator_basis,
    stacked_magnus_generators,
)

TWO_PI = 2 * math.pi


def sech_job(d, delta_t, area=TWO_PI):
    return PulseJob(couplings=coupling_design(d), detuning=delta_t, rms_area=area)


def complex_couplings(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def generators_of(basis, coefficients):
    """_magnus_generators of the coefficient rows, in a buffer of their own."""
    return _magnus_generators(basis, coefficients, np.empty((len(coefficients),) + basis.shape[1:]))


def dark_space(couplings):
    """Orthonormal columns D with <c|H|D> ~ conj(u) . D = 0: the dark states."""
    return null_space(couplings.conj()[np.newaxis])


# ---- PulseJob ---------------------------------------------------------------


def test_pulse_job_validation():
    with pytest.raises(ValueError, match="shape"):
        PulseJob(couplings=np.ones(3), detuning=0.0, rms_area=TWO_PI, shape="square")
    with pytest.raises(ValueError, match="zero"):
        PulseJob(couplings=np.zeros(2), detuning=0.0, rms_area=TWO_PI)
    for field in (
        {"detuning": math.nan},
        {"rms_area": math.inf},
        {"couplings": np.array([1.0, math.nan, 1.0])},
    ):
        kw = {"couplings": np.ones(3), "detuning": 0.0, "rms_area": TWO_PI, **field}
        with pytest.raises(ValueError, match="finite"):
            PulseJob(**kw)
    # bounded so that no accepted pulse integrates for more than about a second
    for field, limit in (
        ({"detuning": -100.5}, "limit 100"),
        ({"rms_area": 1000.5}, "limit 1000"),
        ({"couplings": np.ones(MAX_PULSE_D + 1)}, f"d 17 exceeds the limit {MAX_PULSE_D}"),
    ):
        kw = {"couplings": np.ones(3), "detuning": 0.0, "rms_area": TWO_PI, **field}
        with pytest.raises(ValueError, match=limit):
            PulseJob(**kw)
    PulseJob(couplings=np.ones(MAX_PULSE_D), detuning=-MAX_DETUNING, rms_area=MAX_RMS_AREA)
    # a complex area was integrated by its real part, and a complex detuning
    # failed inside propagate with a TypeError; both are refused by name
    for name, value in (
        ("rms_area", TWO_PI + 3j),
        ("rms_area", np.complex128(TWO_PI)),
        ("detuning", 0.5 + 0j),
        ("detuning", "0.5"),
    ):
        kw = {"couplings": np.ones(3), "detuning": 0.0, "rms_area": TWO_PI, name: value}
        with pytest.raises(ValueError, match=f"pulse {name} must be a finite real number"):
            PulseJob(**kw)
    job = PulseJob(couplings=np.ones(3), detuning=np.float32(0.5), rms_area=np.int64(7))
    assert (job.detuning, job.rms_area) == (0.5, 7.0)
    assert type(job.detuning) is float and type(job.rms_area) is float


@pytest.mark.parametrize("couplings", [np.ones((2, 2)), np.ones((1, 3)), 1.0])
def test_pulse_job_refuses_couplings_that_are_not_1d(couplings):
    # a 2x2 array would pass as d = 4 and fail inside propagate
    with pytest.raises(ValueError, match="1-D"):
        PulseJob(couplings, 0.0, TWO_PI)


# ---- propagate ----------------------------------------------------------------


def test_resonant_pulse_realizes_reflection():
    job = sech_job(3, 0.0)
    prop = propagate(job)
    chi = job.couplings / np.linalg.norm(job.couplings)
    target = np.eye(3) - 2 * np.outer(chi, chi.conj())
    block = prop.qudit_block
    gamma = np.angle(np.trace(target.conj().T @ block))
    assert np.max(np.abs(block * np.exp(-1j * gamma) - target)) < 1e-6


def test_dark_states_do_not_evolve():
    job = sech_job(3, 1.5)
    prop = propagate(job)
    dark = dark_space(job.couplings)
    sub = dark.conj().T @ prop.qudit_block @ dark
    gamma = np.angle(np.mean(np.diag(sub)))
    assert np.max(np.abs(sub - np.exp(1j * gamma) * np.eye(2))) < 1e-6


@pytest.mark.parametrize(
    "d, seed",
    [(2, None), (3, None), (4, None), (3, 5), (4, 6)],
    ids=["2", "3", "4", "3-complex", "4-complex"],
)
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
@pytest.mark.parametrize("delta_t", [0.0, 0.5, 1.0, 2.0])
def test_propagator_unitarity_and_dark_space_grid(d, seed, area, delta_t):
    # seeded complex couplings catch a bright state taken as conj(u)
    couplings = coupling_design(d) if seed is None else complex_couplings(d, seed)
    job = PulseJob(couplings=couplings, detuning=delta_t, rms_area=area)
    prop = propagate(job)
    assert unitarity_defect(prop.matrix) < 1e-8
    # the dark subspace must ride through untouched, whatever the job
    dark = dark_space(job.couplings)
    sub = dark.conj().T @ prop.qudit_block @ dark
    gamma = np.angle(np.mean(np.diag(sub)))
    assert np.max(np.abs(sub - np.exp(1j * gamma) * np.eye(d - 1))) < 1e-6


def column_reference(job, decay=0.0):
    """Propagator integrated one basis column at a time over the whole
    window [-T_MAX, T_MAX], at tight tolerances, in the ungauged basis;
    decay is the ancilla's loss rate Gamma T, entered as the complex
    detuning Delta T - i Gamma T / 2."""
    d = job.d
    f, integral, _ = _ENVELOPES[job.shape]
    unit = job.couplings / np.linalg.norm(job.couplings)
    h_couple = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_couple[:d, d] = unit
    h_couple[d, :d] = unit.conj()
    h_couple *= job.rms_area / (2 * integral)
    h_detune = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_detune[d, d] = job.detuning - 0.5j * decay

    def rhs(t, y):
        return -1j * ((h_couple * f(t) + h_detune) @ y)

    columns = []
    for col in np.eye(d + 1, dtype=np.complex128):
        # In the Gaussian's exp(-400) tail the squared error norms of
        # DOP853's estimate underflow and it divides 0 by 0; the step is
        # then rejected and retried shorter, so the result is unaffected.
        with np.errstate(invalid="ignore"):
            sol = solve_ivp(
                rhs, (-T_MAX, T_MAX), col, method="DOP853", rtol=1e-13, atol=1e-15
            )
        columns.append(sol.y[:, -1])
    return np.column_stack(columns)


COLUMN_CASES = [
    pytest.param(coupling_design(2), "sech", id="2"),
    pytest.param(coupling_design(3), "sech", id="3"),
    pytest.param(coupling_design(8), "sech", id="8"),
    # complex couplings: the gauge's phases must be undone exactly
    pytest.param(complex_couplings(3, 5), "sech", id="3-complex"),
    pytest.param(complex_couplings(5, 7), "sech", id="5-complex"),
    # an exact zero coupling takes the gauge's phase-1 case
    pytest.param(np.array([0.6, 0.0, 0.3 - 0.7j]), "sech", id="3-zero-entry"),
    pytest.param(coupling_design(3), "gaussian", id="3-gaussian"),
]


@pytest.mark.parametrize("couplings, shape", COLUMN_CASES)
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
@pytest.mark.parametrize("delta_t", [0.0, 2.0])
def test_propagator_matches_column_reference(couplings, shape, area, delta_t):
    job = PulseJob(couplings=couplings, detuning=delta_t, rms_area=area, shape=shape)
    prop = propagate(job)
    error = np.max(np.abs(prop.matrix - column_reference(job)))
    assert error < 2e-10
    assert unitarity_defect(prop.matrix) <= 1e-12


@pytest.mark.parametrize(
    "couplings, shape",
    [case for case in COLUMN_CASES if case.id in ("3", "3-complex", "3-gaussian")],
)
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
def test_propagator_matches_column_reference_at_large_detuning(couplings, shape, area):
    # the lab-frame grid must follow the ancilla's free phase, also where
    # it turns many times over the window
    test_propagator_matches_column_reference(couplings, shape, area, 5.0)


@pytest.mark.parametrize(
    "couplings, delta_t, area, shape, decay",
    [
        pytest.param(coupling_design(3), 0.0, TWO_PI, "sech", 0.1, id="3-resonant"),
        pytest.param(complex_couplings(3, 5), 2.0, 3 * TWO_PI, "sech", 1.0, id="3-complex"),
        pytest.param(coupling_design(5), 0.5, TWO_PI, "gaussian", 0.5, id="5-gaussian"),
    ],
)
def test_propagator_with_ancilla_decay_matches_column_reference(
    monkeypatch, couplings, delta_t, area, shape, decay
):
    # a decaying ancilla makes D complex symmetric, Delta T - i Gamma T / 2
    # on its diagonal: the same kernel must take it, since H stays
    # symmetric and even in t and U(0, -T) = U(T, 0)^T needs no unitarity
    gauged_terms = multipod._gauged_terms

    def decaying_terms(job):
        gauge, coupling, detuning = gauged_terms(job)
        detuning = detuning.astype(np.complex128)
        detuning[-1, -1] -= 0.5j * decay
        return gauge, coupling, detuning

    monkeypatch.setattr(multipod, "_gauged_terms", decaying_terms)
    job = PulseJob(couplings=couplings, detuning=delta_t, rms_area=area, shape=shape)
    prop = propagate(job)
    error = np.max(np.abs(prop.matrix - column_reference(job, decay)))
    assert error < 2e-10
    assert unitarity_defect(prop.matrix) > 1e-3  # the loss is really there


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_envelopes_are_even(shape):
    f = _ENVELOPES[shape][0]
    for t in np.linspace(0.0, T_MAX, 401):
        t = float(t)
        assert f(-t) == f(t), (
            f"{shape} envelope is not even at t={t}: propagate composes the "
            f"window as U = D V V^T D^dag, which needs f(-t) = f(t)"
        )


@pytest.mark.parametrize(
    "job, steps",
    [
        pytest.param(sech_job(3, 0.0), 128, id="0.0-128"),
        pytest.param(sech_job(3, 2.0), 256, id="2.0-256"),
        pytest.param(sech_job(3, 10.0), 512, id="10.0-512"),
        # two of the pulse benchmark's own jobs
        pytest.param(sech_job(8, 0.5), 256, id="8-0.5-256"),
        pytest.param(
            PulseJob(coupling_design(3), 0.0, TWO_PI, shape="gaussian"), 128,
            id="gaussian-0.0-128",
        ),
    ],
)
def test_magnus_grid_steps(job, steps):
    # the grid is deterministic, so this guards the half-window cost
    # without timing anything, and a change to the generator that moves
    # the doubling decision either way
    prop = propagate(job)
    assert prop.steps == steps
    assert prop.error_estimate <= multipod.MAGNUS_TOL


def assert_generators_match_reference(coupling, detuning):
    # the generator built from 11 fixed commutators against the general-H
    # scheme, on the coarsest grid (the widest steps) of both shapes
    basis = _commutator_basis(coupling, detuning)
    for shape in PULSE_SHAPES:
        h, f = grid_nodes(shape, 64)
        sym, anti = magnus_generators(h, f[..., None, None] * coupling + detuning)
        reference = np.block([[anti, sym], [-sym, anti]])
        generators = generators_of(basis, _grid_coefficients(shape, 64))
        error = np.max(np.abs(generators - reference))
        assert error <= 1e-13 * np.max(np.abs(reference)), (shape, error)


GENERATOR_COUPLINGS = {
    "design": coupling_design,
    "complex": lambda d: complex_couplings(d, d),
    "zero-entry": lambda d: complex_couplings(d, d) * (np.arange(d) % 2 == 0),
}


# each unit-peak envelope's integral over the half window [0, T_MAX]
HALF_WINDOW_INTEGRALS = {
    "sech": 2.0 * math.atan(math.tanh(T_MAX / 2.0)),
    "gaussian": 0.5 * math.sqrt(math.pi) * math.erf(T_MAX),
}


@pytest.mark.parametrize("kind", ["design", "complex"])
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI, 100.0, MAX_RMS_AREA, -TWO_PI])
@pytest.mark.parametrize("shape", PULSE_SHAPES)
@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_resonant_propagator_matches_closed_form(d, shape, area, kind):
    # At Delta T = 0 the Hamiltonian (A / (2 I_f)) f(t) K commutes with
    # itself, so U = expm(-i (A / (2 I_f)) 2 I K), with I the envelope's
    # integral over the half window and K the ungauged coupling block.
    couplings = GENERATOR_COUPLINGS[kind](d)
    job = PulseJob(couplings=couplings, detuning=0.0, rms_area=area, shape=shape)
    unit = couplings / np.linalg.norm(couplings)
    k = np.zeros((d + 1, d + 1), dtype=np.complex128)
    k[:d, d] = unit
    k[d, :d] = unit.conj()
    angle = area / (2.0 * _ENVELOPES[shape][1]) * 2.0 * HALF_WINDOW_INTEGRALS[shape]
    error = np.max(np.abs(propagate(job).matrix - expm(-1j * angle * k)))
    assert error <= 1e-11, error


@pytest.mark.parametrize("kind", GENERATOR_COUPLINGS)
@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("delta_t", [0.0, 0.5, 5.0, 100.0])
def test_magnus_generators_match_general_reference(d, kind, delta_t):
    # C and D gauged as propagate gauges them
    job = PulseJob(GENERATOR_COUPLINGS[kind](d), delta_t, 3 * TWO_PI)
    assert_generators_match_reference(*_gauged_terms(job)[1:])


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_magnus_generators_match_general_reference_for_any_c_and_d(d):
    # In a multipod C and D act on span{u, c} as an su(2) pair, where
    # [C, S2] and [D, S1] vanish; random symmetric C and D give every one
    # of the 11 commutators a share of the generator.
    rng = np.random.default_rng(d)
    coupling, detuning = rng.normal(size=(2, d + 1, d + 1))
    assert_generators_match_reference(coupling + coupling.T, detuning + detuning.T)


@pytest.mark.parametrize("d", [2, 5, 16])
@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_real_form_generators_match_stacked_reference(d, shape):
    # the real-form basis and the coefficient table against the stacked
    # [anti; -sym] layout they replace, at the widest and the finest steps
    rng = np.random.default_rng(d)
    coupling, detuning = rng.normal(size=(2, d + 1, d + 1))
    coupling, detuning = coupling + coupling.T, detuning + detuning.T
    basis = _commutator_basis(coupling, detuning)
    stacked = stacked_commutator_basis(coupling, detuning)
    assert np.array_equal(basis, real_form(stacked))
    for steps in (64, 4096):
        reference = real_form(stacked_magnus_generators(stacked, *grid_nodes(shape, steps)))
        generators = generators_of(basis, _grid_coefficients(shape, steps))
        assert np.max(np.abs(generators - reference)) <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_grid_nodes_are_memoised_read_only_copies(shape):
    # the table of each step's basis coefficients, built from the grid's
    # widths and Gauss-node envelope values, is memoised read-only
    for steps in (64, 1024):
        table = _grid_coefficients(shape, steps)
        assert _grid_coefficients(shape, steps) is table
        assert table.shape == (steps, 11)
        assert np.array_equal(table, magnus_coefficients(*grid_nodes(shape, steps)))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_grid_node_cache_stays_bounded():
    # resonant pulses start from 64 steps; at Delta T = 100 the grid walks
    # up to 4096; the cache is keyed by (shape, steps) alone
    for shape in PULSE_SHAPES:
        for delta_t in (0.0, 2.0, 10.0, 100.0):
            prop = propagate(PulseJob(coupling_design(3), delta_t, TWO_PI, shape=shape))
        if shape == "sech":
            assert prop.steps == 4096
    bound = 2 * (int(math.log2(multipod.MAX_MAGNUS_STEPS)) - 5)
    # the sech pulses alone use the seven grids from 64 to 4096 steps
    assert 7 <= _grid_coefficients.cache_info().currsize <= bound


def random_stacked(count, n, scale, seed):
    """count stacked matrices [x; y] of complex n x n matrices of entries ~ scale."""
    z = np.random.default_rng(seed).normal(size=(2, count, n, n)) * scale
    return np.concatenate(z, axis=-2)


def complex_of(stacked):
    n = stacked.shape[-1]
    return stacked[..., :n, :] + 1j * stacked[..., n:, :]


@pytest.mark.parametrize("count", [1, 2, 64, 512])
def test_ordered_product_matches_sequential_product(count):
    n = 4
    factors = np.linalg.qr(complex_of(random_stacked(count, n, 1.0, count)))[0]  # unitary
    stack = np.concatenate([factors.real, factors.imag], axis=-2)
    product = _ordered_product(stack, np.empty((count // 2, 2 * n, 2 * n)))
    sequential = np.eye(n)
    for factor in factors:
        sequential = factor @ sequential  # E_k ... E_2 E_1
    assert np.max(np.abs(complex_of(product) - sequential)) <= 1e-12


@pytest.mark.parametrize(
    "theta, squarings", [(0.05, 0), (0.45, 0), (0.9, 1), (1.9, 2), (3.9, 3)]
)
def test_expm_matches_scipy(theta, squarings):
    # a stack of generators whose largest 1-norm, as _expm bounds it, is theta
    n, count = 4, 16
    stacked = random_stacked(count, n, 1.0, 7) * np.linspace(0.1, 1.0, count)[:, None, None]
    norms = np.abs(stacked).sum(axis=-2).max(axis=-1)
    stacked *= theta / norms.max()
    assert math.ceil(math.log2(max(theta, 0.5) / 0.5)) == squarings
    result = _expm(real_form(stacked), np.empty((2, count, 2 * n, n)))
    reference = expm(complex_of(stacked))
    error = np.max(np.abs(complex_of(result) - reference))
    assert error <= 1e-13 * np.max(np.abs(reference))


def test_propagate_twice_gives_the_same_matrix():
    # every cache propagate reads must come out of a call as it went in
    job = PulseJob(complex_couplings(8, 3), 3.0, 3 * TWO_PI)
    first, second = propagate(job), propagate(job)
    assert np.array_equal(first.matrix, second.matrix)
    assert first.steps == second.steps


@pytest.mark.parametrize(
    "job, steps",
    [
        # accepted at its first grid, whose round also integrates 128 steps
        pytest.param(PulseJob(coupling_design(5), 10.0, TWO_PI, shape="gaussian"), 256,
                     id="gaussian-first-grid"),
        # accepted after one doubling
        pytest.param(sech_job(3, 0.5), 256, id="sech-doubled"),
    ],
)
def test_propagator_depends_only_on_the_job_and_its_step_count(job, steps):
    # V_M is its own grid's product, whichever round of propagate computes it
    prop = propagate(job)
    gauge, coupling, detuning = _gauged_terms(job)
    basis = _commutator_basis(coupling, detuning)
    fine, coarse = (_half_window(basis, job.shape, m) for m in (steps, steps // 2))
    matrix = gauge[:, None] * (fine @ fine.T) * gauge.conj()
    assert prop.steps == steps
    assert prop.matrix.tobytes() == matrix.tobytes()
    assert prop.error_estimate.hex() == (float(np.max(np.abs(fine - coarse))) / 63.0).hex()


# the pulse workload's propagated jobs, and two weak sech pulses that do not
# return their population, accepted at 128 steps at an |A Delta T| above
# that of the 2 pi sech pulse at Delta T = 0.5, which is accepted at 256
FIRST_GRID_JOBS = [
    *(pytest.param(sech_job(d, delta_t), id=f"sech-{d}-{delta_t}")
      for d in (2, 3, 5, 8) for delta_t in (0.0, 0.5, 1.0, 2.0)),
    *(pytest.param(PulseJob(coupling_design(d), 0.0, TWO_PI, shape="gaussian"), id=f"gaussian-{d}")
      for d in (2, 3, 5, 8)),
    pytest.param(sech_job(10, -0.917, 3.48), id="weak-sech-10"),
    pytest.param(sech_job(9, -0.920, 3.65), id="weak-sech-9"),
]


@pytest.mark.parametrize("job", FIRST_GRID_JOBS)
def test_first_grid_guess_starts_no_higher_than_the_grid_doubling_accepts(job):
    # propagate's round from 128 steps (coarse grid 64), doubled until
    # accepted; a first guess above the accepted grid skips it and returns
    # a finer V and another estimate
    gauge, coupling, detuning = _gauged_terms(job)
    basis = _commutator_basis(coupling, detuning)
    steps, coarse = 128, _half_window(basis, job.shape, 64)
    while True:
        half = _half_window(basis, job.shape, steps)
        estimate = float(np.max(np.abs(half - coarse))) / 63.0
        if estimate <= multipod.MAGNUS_TOL:
            break
        coarse, steps = half, 2 * steps
    prop = propagate(job)
    assert prop.steps == steps
    assert prop.matrix.tobytes() == (gauge[:, None] * (half @ half.T) * gauge.conj()).tobytes()
    assert prop.error_estimate.hex() == estimate.hex()


PULSE_BITS = """
import hashlib
import math
from quditsearch.fgates import coupling_design
from quditsearch.multipod import PulseJob, propagate
for d, delta_t, shape in ((8, 5.0, "sech"), (16, 3.0, "gaussian")):
    prop = propagate(PulseJob(coupling_design(d), delta_t, 6 * math.pi, shape))
    print(prop.steps, hashlib.sha256(prop.matrix.tobytes()).hexdigest())
"""


def test_pulse_bits_do_not_depend_on_blas_threads():
    # the two pulses whose (steps, 11) @ (11, 4 n^2) generator product is
    # large enough to run on numpy's BLAS threads
    one = run_python(PULSE_BITS, OPENBLAS_NUM_THREADS="1")
    assert run_python(PULSE_BITS, OPENBLAS_NUM_THREADS="2") == one
    assert one.count("\n") == 2


@pytest.mark.parametrize("shape", PULSE_SHAPES)
@pytest.mark.parametrize("delta_t", [0.0, 2.0, 30.0])
@pytest.mark.parametrize("d", [2, 8, 16])
def test_block_budget_keeps_the_step_count_and_the_tolerance(monkeypatch, d, delta_t, shape):
    # The byte budget sets the block, and each block takes its own Taylor
    # degree, so the budget moves the matrix by rounding, within the
    # tolerance, but never the step count.  The budgets: the shipped one
    # (blocks of 32 steps at d = 16), 5 steps' worth (blocks of 4) and 512
    # steps' worth.  A sech pulse at Delta T = 30 ends on a 1024-step grid,
    # two blocks of 512.
    job = PulseJob(complex_couplings(d, d), delta_t, TWO_PI, shape)
    step_bytes = 32 * (d + 1) ** 2  # one step's generator in real form
    runs = []
    for budget in (multipod._BLOCK_BYTES, 5 * step_bytes, 512 * step_bytes):
        monkeypatch.setattr(multipod, "_BLOCK_BYTES", budget)
        runs.append(propagate(job))
    assert runs[0].steps == runs[1].steps == runs[2].steps
    for prop in runs[:2]:
        assert np.max(np.abs(prop.matrix - runs[2].matrix)) <= 2 * multipod.MAGNUS_TOL
    if shape == "sech" and delta_t == 30.0:
        assert runs[2].steps >= 1024


def test_half_window_folds_its_blocks_in_grid_order():
    # at d = 16 the shipped budget fits 32 steps, so the 256-step grid is
    # eight blocks, each exponentiated at its own 1-norm and multiplied by
    # its own tree, then folded into V block by block
    job = sech_job(16, 2.0)
    _, coupling, detuning = _gauged_terms(job)
    basis = _commutator_basis(coupling, detuning)
    table = _grid_coefficients(job.shape, 256)
    n = job.d + 1
    v = np.concatenate([np.eye(n), np.zeros((n, n))])
    for lo in range(0, 256, 32):
        generators = generators_of(basis, table[lo : lo + 32])
        exps = _expm(generators, np.empty((2, 32, 2 * n, n)))
        block = _ordered_product(exps, np.empty((16, 2 * n, 2 * n)))
        v = real_form(block) @ v
    assert _half_window(basis, job.shape, 256).tobytes() == (v[:n] + 1j * v[n:]).tobytes()


def test_step_cap_raises(monkeypatch):
    # a Delta T = 10 pulse needs 512 steps; under a cap of 256 it must fail
    # loudly rather than return a propagator short of the tolerance
    monkeypatch.setattr(multipod, "MAX_MAGNUS_STEPS", 256)
    with pytest.raises(RuntimeError, match="tolerance"):
        propagate(sech_job(3, 10.0))


def test_box_corner_pulse_stays_bounded():
    # the hardest pulse the input bounds accept: the grid is processed in
    # blocks of at most _BLOCK_BYTES of generators, so the memory grows
    # neither with the number of steps nor with d
    job = PulseJob(complex_couplings(MAX_PULSE_D, 11), MAX_DETUNING, MAX_RMS_AREA)
    tracemalloc.start()
    try:
        prop = propagate(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prop.steps <= multipod.MAX_MAGNUS_STEPS
    assert peak <= 4 * 2**20
    assert unitarity_defect(prop.matrix) <= 1e-10


# ---- extract_reflection ----------------------------------------------------------


def test_extract_resonant_phase_is_pi():
    job = sech_job(3, 0.0)
    fit = extract_reflection(propagate(job), job.couplings)
    assert phase_distance(fit.phase, math.pi) < 1e-4
    assert fit.residual < 1e-6
    assert fit.leakage < 1e-6


def test_extract_phase_at_unit_detuning():
    job = sech_job(3, 1.0)
    fit = extract_reflection(propagate(job), job.couplings)
    assert phase_distance(fit.phase, math.pi / 2) < 1e-4


def test_extract_phase_at_double_detuning():
    job = sech_job(3, 2.0)
    fit = extract_reflection(propagate(job), job.couplings)
    assert phase_distance(fit.phase, 0.927295218001612) < 1e-4


def test_triple_area_still_reflects():
    # area 6 pi returns the population and keeps the same axis; at zero
    # detuning the phase is again pi
    job = sech_job(3, 0.0, area=3 * TWO_PI)
    fit = extract_reflection(propagate(job), job.couplings)
    assert phase_distance(fit.phase, math.pi) < 1e-4
    assert fit.residual < 1e-5


def test_exact_double_area_fits_identity():
    # area 4 pi also returns the population but with no phase: M(chi, 0) = 1
    job = sech_job(3, 0.0, area=2 * TWO_PI)
    fit = extract_reflection(propagate(job), job.couplings)
    assert abs(fit.phase) < 1e-3
    assert fit.residual < 1e-5


def test_off_return_area_is_rejected():
    job = sech_job(4, 0.0, area=12.566)  # close to, but not exactly, 4 pi
    with pytest.raises(LeakageError, match="leakage"):
        extract_reflection(propagate(job), job.couplings)


def test_extract_shape_check():
    job = sech_job(3, 0.0)
    with pytest.raises(ValueError, match="shape"):
        extract_reflection(Propagator(np.eye(3)), job.couplings)


@pytest.mark.parametrize(
    "couplings, message",
    [
        (np.zeros(3), "all couplings are zero"),
        (np.array([1.0, math.nan, 0.0]), "must be finite"),
        (np.array([1.0, math.inf, 0.0]), "must be finite"),
        (np.ones((1, 3)), "must be 1-D"),
    ],
    ids=["zero", "nan", "inf", "2-D"],
)
def test_extract_refuses_couplings_a_pulse_job_refuses(couplings, message):
    # these used to give phase = residual = nan (with a RuntimeWarning) or
    # numpy's gufunc error, instead of PulseJob's ValueError
    with pytest.raises(ValueError, match=message):
        extract_reflection(propagate(sech_job(3, 0.0)), couplings)
    with pytest.raises(ValueError, match=message):
        PulseJob(couplings, 0.0, TWO_PI)


@pytest.mark.parametrize(
    "couplings, message",
    [
        (np.full(3, 1e200), "overflows to inf"),
        (np.array([1e-170, 1e-170, 2e-170]), "underflows to 0"),
    ],
    ids=["overflow", "underflow"],
)
def test_couplings_whose_norm_is_not_a_positive_finite_double_are_refused(couplings, message):
    # an overflowing norm used to be accepted: the pulse then coupled along
    # couplings / inf = 0, and extract_reflection fit a perfect reflection
    # behind numpy's overflow warning; an underflowing one was called all zero
    message = "2-norm is not a positive finite double .*" + message
    with pytest.raises(ValueError, match=message):
        extract_reflection(propagate(sech_job(3, 0.0)), couplings)
    with pytest.raises(ValueError, match=message):
        PulseJob(couplings, 0.0, TWO_PI)


# ---- analytic_sech_phase ----------------------------------------------------------


def test_analytic_phase_values():
    assert analytic_sech_phase(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert analytic_sech_phase(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    values = [analytic_sech_phase(x) for x in np.linspace(0, 50, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert analytic_sech_phase(1e6) < 1e-5


@pytest.mark.parametrize("area", ["1e300", "math.inf", "-math.inf", "math.nan", "-1000.5"])
def test_analytic_phase_refuses_an_area_pulse_job_refuses(area):
    # 1e300 summed about 1.6e299 arctangents and inf overflowed; a fresh
    # interpreter with a timeout, so a hanging sum fails the test
    probe = f"""
import math
from quditsearch.multipod import PulseJob, analytic_sech_phase
for call in (lambda: analytic_sech_phase(0.5, {area}), lambda: PulseJob([1.0], 0.5, {area})):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""
    phase_error, job_error = run_python(probe, timeout=10).splitlines()
    assert phase_error == job_error and "rms_area" in phase_error


@pytest.mark.parametrize("delta_t", [0.0, 0.3, 0.5, 1.0, 2.0, 5.0])
def test_analytic_phase_at_two_pi_keeps_its_closed_form_bits(delta_t):
    assert analytic_sech_phase(delta_t) == math.pi - 2.0 * math.atan(delta_t)
    assert analytic_sech_phase(delta_t, -TWO_PI) == analytic_sech_phase(delta_t)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_phase_law_matches_integration_at_every_return_area(d, k):
    # an area 2k pi returns the population with the phase
    # k pi - 2 sum_j arctan(Delta T / (2j - 1)), on the fit's branch (-pi, pi]
    for area in (k * TWO_PI, -k * TWO_PI):
        for delta_t in (0.0, 0.3, 0.5, 1.0, 2.0, 5.0, -1.5):
            job = sech_job(d, delta_t, area)
            fit = extract_reflection(propagate(job), job.couplings)
            analytic = analytic_sech_phase(delta_t, area)
            assert -math.pi < analytic <= math.pi
            assert abs(fit.phase - analytic) < 1e-9, (area, delta_t)


@pytest.mark.parametrize("delta_t", [0.0, 0.75, 1.5, 2.25, 3.0])
def test_phase_law_matches_integration(delta_t):
    job = sech_job(2, delta_t)
    fit = extract_reflection(propagate(job), job.couplings)
    assert phase_distance(fit.phase, analytic_sech_phase(delta_t)) < 1e-4


def test_wrap_phase_branch():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(0.3 - 2 * math.pi) == pytest.approx(0.3, abs=1e-12)
    # the reduction is exact: an angle on the branch keeps its bits
    for x in (0.1, 0.3, -3.0, 2.5, math.pi / 3, -math.pi + 1e-9):
        assert wrap_phase(x) == x


# ---- verify_f_pulse ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pulse_synthesized_gate_matches_closed_form(d):
    report = verify_f_pulse(d)
    assert report.passed
    assert report.deviation < 1e-5
    assert report.fit.leakage < 1e-6


def test_verify_f_pulse_reads_d_as_an_integer():
    with pytest.raises(ValueError, match="level count d must be an integer, got 3.0"):
        verify_f_pulse(3.0)


def test_pulse_gate_report_passes_iff_deviation_is_below_1e_5():
    report = verify_f_pulse(2)
    assert dataclasses.replace(report, deviation=9.9e-6).passed
    assert not dataclasses.replace(report, deviation=1e-5).passed
    assert not dataclasses.replace(report, deviation=math.nan).passed


def test_pulse_gate_first_column_d2():
    report = verify_f_pulse(2)
    col = report.gate.matrix[:, 0]
    gamma = np.angle(col[0])
    np.testing.assert_allclose(
        col * np.exp(-1j * gamma),
        [1 / np.sqrt(2), -1 / np.sqrt(2)],
        atol=1e-6,
    )


# ---- gaussian pulse fixture ------------------------------------------------------------


@pytest.fixture(scope="module")
def tuned_gaussian():
    """Numerically tuned (area, detuning) pair with a leakage zero.

    Gaussian pulses have no closed-form return condition; starting from a
    coarse guess near one full cycle, a simplex search drives the ancilla
    leakage to a numerical zero.
    """

    def leakage(params):
        area, delta_t = params
        job = PulseJob(
            couplings=coupling_design(3),
            detuning=delta_t,
            rms_area=area,
            shape="gaussian",
        )
        prop = propagate(job)
        return np.linalg.norm(prop.matrix[-1, :-1])  # ancilla row, qudit columns

    result = minimize(
        leakage,
        x0=[6.27, 0.31],
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 80},
    )
    return float(result.x[0]), float(result.x[1])


def test_tuned_gaussian_pulse_yields_reflection(tuned_gaussian):
    area, delta_t = tuned_gaussian
    job = PulseJob(
        couplings=coupling_design(3),
        detuning=delta_t,
        rms_area=area,
        shape="gaussian",
    )
    fit = extract_reflection(propagate(job), job.couplings)
    assert fit.leakage < 1e-4
    assert fit.residual < 1e-4
    assert 0 < fit.phase <= math.pi
