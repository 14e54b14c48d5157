import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import null_space
from scipy.optimize import minimize

from quditsearch import multipod
from quditsearch.fgates import coupling_design, householder_f
from quditsearch.multipod import (
    PULSE_SHAPES,
    _ENVELOPES,
    _GAUSS_NODES,
    _commutator_basis,
    _gauged_terms,
    _grid_nodes,
    _magnus_generators,
    _magnus_grid,
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

from helpers import magnus_generators, phase_distance

TWO_PI = 2 * math.pi


def sech_job(d, delta_t, area=TWO_PI):
    return PulseJob(couplings=coupling_design(d), detuning=delta_t, rms_area=area)


def complex_couplings(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d) + 1j * rng.normal(size=d)


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


def column_reference(job):
    """Propagator integrated one basis column at a time over the whole
    window [-T_MAX, T_MAX], at tight tolerances, in the ungauged basis."""
    d = job.d
    f, integral = _ENVELOPES[job.shape]
    unit = job.couplings / np.linalg.norm(job.couplings)
    h_couple = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_couple[:d, d] = unit
    h_couple[d, :d] = unit.conj()
    h_couple *= job.rms_area / (2 * integral)
    h_detune = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_detune[d, d] = job.detuning

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


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_envelopes_are_even(shape):
    f, _ = _ENVELOPES[shape]
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
        h, f = _grid_nodes(shape, 64)
        sym, anti = magnus_generators(h, f[..., None, None] * coupling + detuning)
        reference = np.concatenate([anti, -sym], axis=-2)
        error = np.max(np.abs(_magnus_generators(basis, h, *f.T) - reference))
        assert error <= 1e-13 * np.max(np.abs(reference)), (shape, error)


GENERATOR_COUPLINGS = {
    "design": coupling_design,
    "complex": lambda d: complex_couplings(d, d),
    "zero-entry": lambda d: complex_couplings(d, d) * (np.arange(d) % 2 == 0),
}


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


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_grid_nodes_are_memoised_read_only_copies(shape):
    f, _ = _ENVELOPES[shape]
    for steps in (64, 1024):
        h, nodes = _grid_nodes(shape, steps)
        assert _grid_nodes(shape, steps)[0] is h
        times = _magnus_grid(f, steps)
        fresh = times[1:] - times[:-1]
        assert np.array_equal(h, fresh)
        assert np.array_equal(nodes, f(times[:-1, None] + fresh[:, None] * _GAUSS_NODES))
        for array in (h, nodes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


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
    assert 7 <= _grid_nodes.cache_info().currsize <= bound


def test_step_cap_raises(monkeypatch):
    # a Delta T = 10 pulse needs 512 steps; under a cap of 256 it must fail
    # loudly rather than return a propagator short of the tolerance
    monkeypatch.setattr(multipod, "MAX_MAGNUS_STEPS", 256)
    with pytest.raises(RuntimeError, match="tolerance"):
        propagate(sech_job(3, 10.0))


def test_box_corner_pulse_stays_bounded():
    # the hardest pulse the input bounds accept: the grid is processed in
    # blocks, so the memory does not grow with the number of steps
    job = PulseJob(complex_couplings(MAX_PULSE_D, 11), MAX_DETUNING, MAX_RMS_AREA)
    tracemalloc.start()
    try:
        prop = propagate(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prop.steps <= multipod.MAX_MAGNUS_STEPS
    assert peak <= 32 * 2**20
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


# ---- analytic_sech_phase ----------------------------------------------------------


def test_analytic_phase_values():
    assert analytic_sech_phase(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert analytic_sech_phase(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    values = [analytic_sech_phase(x) for x in np.linspace(0, 50, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert analytic_sech_phase(1e6) < 1e-5


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


# ---- verify_f_pulse ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pulse_synthesized_gate_matches_closed_form(d):
    report = verify_f_pulse(d)
    assert report.passed
    assert report.deviation < 1e-5
    assert report.fit.leakage < 1e-6


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
