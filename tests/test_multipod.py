import math

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
    LeakageError,
    MAX_DETUNING,
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

from helpers import phase_distance

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
    ):
        kw = {"couplings": np.ones(3), "detuning": 0.0, "rms_area": TWO_PI, **field}
        with pytest.raises(ValueError, match=limit):
            PulseJob(**kw)
    PulseJob(couplings=np.ones(3), detuning=-MAX_DETUNING, rms_area=MAX_RMS_AREA)


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
    error = np.max(np.abs(propagate(job).matrix - column_reference(job)))
    assert error < 2e-10


@pytest.mark.parametrize(
    "couplings, shape",
    [case for case in COLUMN_CASES if case.id in ("3", "3-complex", "3-gaussian")],
)
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
def test_propagator_matches_column_reference_at_large_detuning(couplings, shape, area):
    # the interaction-picture solve must restore the ancilla's free phase
    # exactly, also where it turns many times over the window
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


def one_solve(monkeypatch, job):
    """(t_span, nfev) of the single solve_ivp call that propagate(job) makes."""
    solves = []
    solve_ivp_ = multipod.solve_ivp

    def counting(fun, t_span, y0, **kwargs):
        sol = solve_ivp_(fun, t_span, y0, **kwargs)
        solves.append((tuple(t_span), sol.nfev))
        return sol

    monkeypatch.setattr(multipod, "solve_ivp", counting)
    propagate(job)
    assert len(solves) == 1
    return solves[0]


def test_one_half_window_solve_per_propagator(monkeypatch):
    # the right-hand-side count is deterministic, so this guards the
    # half-window integration without timing anything
    t_span, nfev = one_solve(monkeypatch, sech_job(3, 0.0))
    assert t_span == (0.0, T_MAX)
    assert nfev <= 700  # 1289 over the whole window


@pytest.mark.parametrize(
    "delta_t, max_nfev",
    [
        (2.0, 1000),  # 2225 with the ancilla's free phase integrated
        (10.0, 4000),  # 10673 with the ancilla's free phase integrated
    ],
)
def test_detuned_solve_leaves_out_the_free_phase(monkeypatch, delta_t, max_nfev):
    # in the detuning's interaction picture the solver no longer follows
    # exp(-i Delta T t) on the ancilla, so the count stays near the
    # resonant one instead of growing linearly with Delta T
    t_span, nfev = one_solve(monkeypatch, sech_job(3, delta_t))
    assert t_span == (0.0, T_MAX)
    assert nfev <= max_nfev


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
