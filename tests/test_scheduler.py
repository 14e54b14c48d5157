import dataclasses
import json
import math

import numpy as np
import pytest

from quditsearch.engine import ExperimentConfig, run_search
from quditsearch.register import BasisIndex, QuditShape
from quditsearch.scheduler import (
    MAX_STEPS,
    SearchSchedule,
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
    matched_phase,
)

from helpers import two_state_populations


# ---- deterministic_schedule -------------------------------------------------


def test_deterministic_n243():
    sched = deterministic_schedule(243)
    assert sched.beta == pytest.approx(0.0641941102378565, abs=1e-15)
    assert sched.j == 12
    assert sched.steps == 12
    assert sched.phi == pytest.approx(2.72910798445139, abs=1e-11)
    assert sched.mode == "deterministic"


def test_deterministic_n4_boundary():
    # pi/(4 beta) + 1/2 is exactly 2 in real arithmetic; the double floor
    # is unstable there, so j is returned exactly, with no warning.
    sched = deterministic_schedule(4)
    assert sched.beta == pytest.approx(math.pi / 6, abs=1e-15)
    assert sched.j == 2
    assert sched.steps == 3  # (2j-1) beta = pi/2 exactly
    assert sched.phi == pytest.approx(0.922442026906371, abs=1e-12)


def test_deterministic_rejects_small_n():
    with pytest.raises(ValueError, match=">= 2"):
        deterministic_schedule(1)


def test_phase_in_range_and_steps_near_j():
    for N in list(range(2, 200)) + [500, 1000, 4096, 10**6]:
        sched = deterministic_schedule(N)
        assert 0.0 < sched.phi <= math.pi + 1e-15
        assert sched.steps in (sched.j, sched.j + 1)


def test_matched_phase_arcsin_domain_guard():
    # the arcsin argument stays <= 1 and the floor guard never raises:
    # every N up to 2^16, then a spot-check of larger sizes
    rng = np.random.default_rng(123)
    sample = set(range(2, 2**16 + 1))
    sample.update(int(x) for x in np.geomspace(2**16 + 1, 10**6, 200))
    sample.update(int(x) for x in rng.integers(2**16 + 1, 10**6, 300))
    for N in sorted(sample):
        sched = deterministic_schedule(N)
        assert math.isfinite(sched.phi)


def test_matched_phase_below_minimum_steps():
    with pytest.raises(ValueError, match="below the minimum"):
        matched_phase(243, 11)


def test_monotone_setup():
    prev = deterministic_schedule(2)
    for N in range(3, 1025):
        sched = deterministic_schedule(N)
        assert sched.beta < prev.beta
        assert sched.j >= prev.j
        prev = sched


# ---- canonical_schedule -----------------------------------------------------


def test_canonical_step_counts():
    assert canonical_schedule(243).steps == 12
    assert canonical_schedule(4).steps == 2
    assert canonical_schedule(2).steps == 1
    assert canonical_schedule(243).phi == math.pi


def test_canonical_rejects_small_n():
    with pytest.raises(ValueError, match=">= 2"):
        canonical_schedule(1)


# ---- custom_schedule ----------------------------------------------------------


def test_custom_schedule_fields():
    sched = custom_schedule(9, 1.5, 7)
    assert (sched.N, sched.phi, sched.steps, sched.mode) == (9, 1.5, 7, "custom")
    with pytest.raises(ValueError, match=">= 0"):
        custom_schedule(9, 1.5, -1)
    for phi in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            custom_schedule(9, phi, 2)


def test_custom_schedule_step_cap():
    assert custom_schedule(9, 1.5, MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(ValueError, match=f"<= {MAX_STEPS}"):
        custom_schedule(9, 1.5, MAX_STEPS + 1)
    # the cap is custom_schedule's: a deterministic schedule may be longer
    assert deterministic_schedule(2**100).steps > MAX_STEPS


def test_custom_schedule_refuses_non_integral_steps():
    # 2.5 steps is no step count; truncating it would run another schedule
    with pytest.raises(ValueError, match="integer"):
        custom_schedule(27, 1.0, 2.5)
    with pytest.raises(ValueError, match="integer"):
        SearchSchedule(27, 1.0, 2.5, "x")
    for steps in (np.int64(3), np.uint8(3)):
        sched = custom_schedule(27, 1.0, steps)
        assert sched.steps == 3 and type(sched.steps) is int
        assert SearchSchedule(27, 1.0, steps, "x").steps == 3


SCHEDULE_BUILDS = {
    "deterministic": deterministic_schedule,
    "canonical": canonical_schedule,
    "custom": lambda N: custom_schedule(N, 1.0, 12),
    "SearchSchedule": lambda N: SearchSchedule(N, 1.0, 12, "x"),
}


@pytest.mark.parametrize("N", [2.5, 243.0, math.inf, np.int64(243), np.uint16(243)],
                         ids=["2.5", "243.0", "inf", "int64", "uint16"])
@pytest.mark.parametrize("build", list(SCHEDULE_BUILDS))
def test_schedule_reads_the_database_size_as_an_integer(build, N):
    # a float N is no database size (2.5 got a schedule, inf a
    # ZeroDivisionError or OverflowError); a numpy integer becomes an int,
    # so the schedule serializes as JSON
    if isinstance(N, float):
        with pytest.raises(ValueError, match="database size must be an integer"):
            SCHEDULE_BUILDS[build](N)
    else:
        sched = SCHEDULE_BUILDS[build](N)
        assert sched.N == 243 and type(sched.N) is int
        assert json.loads(json.dumps(dataclasses.asdict(sched)))["N"] == 243


def test_step_index_past_double_precision_is_value_error():
    # from 2**51 up pi/(4 beta) + 1/2 has no resolvable floor
    for N in (2**103, 2**110, 2**200):
        with pytest.raises(ValueError, match=f"N has {N.bit_length()} bits"):
            deterministic_schedule(N)


def test_step_index_straddle_is_value_error():
    # below 2**102.7 a growing share of N puts pi/(4 beta) + 1/2 within
    # 1 ulp of an integer: a precision limit, refused like the N above it
    refused = 0
    for p in range(90, 103):
        for i in range(0, 200, 4):
            N = 2**p + (2**p * i) // 200
            try:
                sched = deterministic_schedule(N)
            except ValueError as exc:
                assert f"N has {N.bit_length()} bits" in str(exc)
                refused += 1
            else:
                assert sched.steps in (sched.j, sched.j + 1)
    assert refused > 0


@pytest.mark.parametrize("phi, steps, match", [
    pytest.param(math.nan, 4, "finite", id="nan-phase"),
    pytest.param(math.inf, 4, "finite", id="inf-phase"),
    pytest.param(0.19, -3, ">= 0", id="negative-steps"),
])
def test_schedule_refuses_what_it_cannot_run(phi, steps, match):
    # the type holds its own contract, however the schedule is built
    with pytest.raises(ValueError, match=match):
        SearchSchedule(27, phi, steps, "x")


@pytest.mark.parametrize("N, j", [(2, 1), (4, 2), (27, 4), (243, 12), (1000, 25),
                                  (3**12, 573), (2**31 - 1, 36396)])
def test_hand_built_schedule_carries_the_rotation_its_n_fixes(N, j):
    # beta and j are N's, whatever phase and step count the schedule runs
    sched = SearchSchedule(N, 0.19, 2, "x")
    assert sched.beta == pytest.approx(math.asin(N**-0.5), rel=1e-15)
    assert sched.j == j
    det = deterministic_schedule(N)
    assert SearchSchedule(N, det.phi, det.steps, det.mode) == det
    assert list(dataclasses.asdict(sched)) == ["N", "beta", "j", "phi", "steps", "mode"]
    with pytest.raises(TypeError):
        SearchSchedule(N, 0.19, 0.19, 2, 4, "x")


# ---- two-state model (helpers.two_state_populations) ---------------------------


def test_predicted_exact_hit_n4():
    assert two_state_populations(4, math.pi, 1)[1] == pytest.approx(1.0, abs=1e-15)


def test_predicted_canonical_n243():
    assert two_state_populations(243, math.pi, 12)[12] == pytest.approx(
        0.998840607974001, abs=1e-12
    )


def test_predicted_initial_population():
    for N in (4, 81, 243):
        assert two_state_populations(N, 2.0, 0)[0] == pytest.approx(1 / N, abs=1e-15)
        assert two_state_populations(N, math.pi, 0)[0] == pytest.approx(1 / N, abs=1e-15)


@pytest.mark.parametrize("N", [2, 4, 243, 3**12])
def test_predicted_population_at_pi_is_the_closed_form(N):
    # at phi = pi the two-state model is a rotation by 2 beta per step
    beta = math.asin(N**-0.5)
    closed_form = np.sin((2 * np.arange(601) + 1) * beta) ** 2
    np.testing.assert_allclose(
        two_state_populations(N, math.pi, 600), closed_form, rtol=0, atol=1e-12
    )


def test_predicted_rejects_negative_steps():
    with pytest.raises(ValueError, match=">= 0"):
        two_state_populations(9, math.pi, -1)


def test_predicted_rejects_small_databases():
    for steps in (3, -1):  # N is checked first
        with pytest.raises(ValueError, match="N=1"):
            two_state_populations(1, math.pi, steps)


# ---- consistency with the full simulator ----------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_state_model_matches_simulation(n):
    shape = QuditShape(3, n)
    N = shape.N
    for sched in (deterministic_schedule(N), canonical_schedule(N)):
        cfg = ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, N // 2),
            schedule=sched,
        )
        traj = run_search(cfg)
        np.testing.assert_allclose(
            traj.populations, two_state_populations(N, sched.phi, sched.steps),
            rtol=0, atol=1e-9,
        )


def test_determinism_guarantee_full_simulation():
    # every N in [4, 1024] as a single-qudit register of dimension N
    for N in range(4, 1025):
        sched = deterministic_schedule(N)
        shape = QuditShape(N, 1)
        cfg = ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, N // 2),
            schedule=sched,
        )
        final = run_search(cfg).populations[-1]
        assert final >= 1 - 1e-6, f"N={N}: final population {final}"
