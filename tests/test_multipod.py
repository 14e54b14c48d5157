import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from quditsearch.fgates import coupling_design, householder_f
from quditsearch.multipod import (
    LeakageError,
    PulseJob,
    analytic_sech_phase,
    extract_reflection,
    morris_shore,
    propagate,
    verify_f_pulse,
    wrap_phase,
)
from quditsearch.reflections import unitarity_defect

from helpers import phase_distance

TWO_PI = 2 * math.pi


def sech_job(d, delta_t, area=TWO_PI):
    return PulseJob(couplings=coupling_design(d), detuning=delta_t, rms_area=area)


# ---- morris_shore -----------------------------------------------------------


def test_morris_shore_single_coupling():
    basis = morris_shore(np.array([1.0, 0.0]))
    np.testing.assert_allclose(basis.bright, [1.0, 0.0], atol=1e-15)
    assert basis.rms_rabi == pytest.approx(1.0)
    assert basis.dark.shape == (2, 1)
    np.testing.assert_allclose(np.abs(basis.dark[:, 0]), [0.0, 1.0], atol=1e-12)


def test_morris_shore_symmetric_tripod():
    om = np.ones(3) / np.sqrt(3)
    basis = morris_shore(om)
    np.testing.assert_allclose(basis.bright, om, atol=1e-14)
    assert basis.rms_rabi == pytest.approx(1.0, abs=1e-14)
    # dark columns orthonormal and orthogonal to bright
    overlaps = basis.dark.conj().T @ basis.bright
    np.testing.assert_allclose(overlaps, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        basis.dark.conj().T @ basis.dark, np.eye(2), atol=1e-12
    )


def test_morris_shore_coupling_design_quadripod():
    basis = morris_shore(coupling_design(4))
    np.testing.assert_allclose(basis.bright, [0.5, 0.5, 0.5, 0.5], atol=1e-14)
    assert basis.rms_rabi == pytest.approx(1.0, abs=1e-14)


def test_morris_shore_conjugates_complex_weights():
    om = np.array([1.0j, 1.0]) / np.sqrt(2)
    basis = morris_shore(om)
    np.testing.assert_allclose(basis.bright, om.conj(), atol=1e-15)


def test_morris_shore_rejects_zero_couplings():
    with pytest.raises(ValueError, match="zero"):
        morris_shore(np.zeros(3))


# ---- PulseJob ---------------------------------------------------------------


def test_pulse_job_validation():
    with pytest.raises(ValueError, match="shape"):
        PulseJob(couplings=np.ones(3), detuning=0.0, rms_area=TWO_PI, shape="square")
    with pytest.raises(ValueError, match="t_max"):
        PulseJob(couplings=np.ones(3), detuning=0.0, rms_area=TWO_PI, t_max=5.0)
    with pytest.raises(ValueError, match="width"):
        PulseJob(couplings=np.ones(3), detuning=0.0, rms_area=TWO_PI, width=0.0)
    with pytest.raises(ValueError, match="zero"):
        PulseJob(couplings=np.zeros(2), detuning=0.0, rms_area=TWO_PI)
    for field in (
        {"detuning": math.nan},
        {"rms_area": math.inf},
        {"width": math.nan},
        {"couplings": np.array([1.0, math.nan, 1.0])},
    ):
        kw = {"couplings": np.ones(3), "detuning": 0.0, "rms_area": TWO_PI, **field}
        with pytest.raises(ValueError, match="finite"):
            PulseJob(**kw)


def test_peak_rms_rabi():
    job = sech_job(3, 0.0)
    assert job.peak_rms_rabi == pytest.approx(2.0, abs=1e-14)  # A/(pi T)
    gauss = PulseJob(
        couplings=coupling_design(3), detuning=0.0, rms_area=TWO_PI, shape="gaussian"
    )
    assert gauss.peak_rms_rabi == pytest.approx(TWO_PI / math.sqrt(math.pi), abs=1e-12)


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
    basis = morris_shore(job.couplings)
    sub = basis.dark.conj().T @ prop.qudit_block @ basis.dark
    gamma = np.angle(np.mean(np.diag(sub)))
    assert np.max(np.abs(sub - np.exp(1j * gamma) * np.eye(2))) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
@pytest.mark.parametrize("delta_t", [0.0, 0.5, 1.0, 2.0])
def test_propagator_unitarity_and_dark_space_grid(d, area, delta_t):
    job = sech_job(d, delta_t, area)
    prop = propagate(job)
    assert unitarity_defect(prop.matrix) < 1e-8
    # the dark subspace must ride through untouched, whatever the job
    dark = morris_shore(job.couplings).dark
    sub = dark.conj().T @ prop.qudit_block @ dark
    gamma = np.angle(np.mean(np.diag(sub)))
    assert np.max(np.abs(sub - np.exp(1j * gamma) * np.eye(d - 1))) < 1e-6


def column_reference(job):
    """Propagator integrated one basis column at a time, at tight tolerances."""
    d = job.d
    unit = job.couplings / np.linalg.norm(job.couplings)
    h_couple = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_couple[:d, d] = unit
    h_couple[d, :d] = unit.conj()
    h_couple *= job.rms_area / (2 * math.pi)  # sech envelope integral is pi
    h_detune = np.zeros((d + 1, d + 1), dtype=np.complex128)
    h_detune[d, d] = job.detuning * job.width

    def rhs(t, y):
        return -1j * ((h_couple / np.cosh(t) + h_detune) @ y)

    columns = []
    for col in np.eye(d + 1, dtype=np.complex128):
        sol = solve_ivp(
            rhs, (-job.t_max, job.t_max), col, method="DOP853", rtol=1e-13, atol=1e-15
        )
        columns.append(sol.y[:, -1])
    return np.column_stack(columns)


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("area", [TWO_PI, 3 * TWO_PI])
@pytest.mark.parametrize("delta_t", [0.0, 2.0])
def test_propagator_matches_column_reference(d, area, delta_t):
    job = sech_job(d, delta_t, area)
    error = np.max(np.abs(propagate(job).matrix - column_reference(job)))
    assert error < 2e-10


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
        extract_reflection(np.eye(3), job.couplings)


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
        prop = propagate(job, rtol=1e-9, atol=1e-11)
        return prop.ancilla_leakage

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
