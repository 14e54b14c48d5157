"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from quditsearch.engine import run_search
from quditsearch.fgates import coupling_design, make_f, validate_f
from quditsearch.multipod import (
    PulseJob,
    analytic_sech_phase,
    extract_reflection,
    propagate,
    verify_f_pulse,
)
from quditsearch.register import QuditShape
from quditsearch.scheduler import (
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
)

from helpers import (
    config,
    dense_grover_matrix,
    hadamard,
    phase_distance,
    start_state,
    two_state_populations,
)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {message}")


def test_criterion_1_five_qutrit_figure():
    start = time.perf_counter()
    traj = run_search(config(3, 5, deterministic_schedule(243), marked=42))
    elapsed = time.perf_counter() - start
    assert traj.populations[12] >= 0.999
    assert traj.peak_step == 12
    assert elapsed < 1.0
    report(1, f"N=243 population {traj.populations[12]:.9f} at step 12, "
              f"peak at 12, {elapsed * 1e3:.0f} ms")


def test_criterion_2_deterministic_guarantee():
    start = time.perf_counter()
    checked = 0
    worst = 1.0
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            N = d**n
            if N < 4:
                continue
            sched = deterministic_schedule(N)
            traj = run_search(config(d, n, sched, marked=N - 1))
            final = traj.populations[-1]
            assert final >= 1 - 1e-6, f"d={d} n={n}: {final}"
            worst = min(worst, final)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} register geometries, worst final population "
              f"{worst:.9f}, {elapsed:.1f} s")


def test_criterion_3_two_state_model_equivalence():
    worst = 0.0
    for n in (2, 3, 4, 5):
        shape = QuditShape(3, n)
        N = shape.N
        for sched in (canonical_schedule(N), deterministic_schedule(N)):
            traj = run_search(config(3, n, sched, marked=N // 3))
            model = two_state_populations(N, sched.phi, sched.steps)
            np.testing.assert_allclose(traj.populations, model, rtol=0, atol=1e-9,
                                       err_msg=f"N={N} phi={sched.phi}")
            worst = max(worst, float(np.max(np.abs(traj.populations - model))))
    report(3, f"N in {{9,27,81,243}}, both phases, max deviation {worst:.2e}")


def test_criterion_4_dense_oracle_equivalence():
    worst = 0.0
    for d, n in ((2, 4), (3, 3), (2, 6), (3, 4)):
        N = d**n
        sched = custom_schedule(N, deterministic_schedule(N).phi, 12)
        cfg = config(d, n, sched, marked=N // 2)
        g = dense_grover_matrix(cfg)
        assert np.max(np.abs(g.conj().T @ g - np.eye(N))) < 1e-10
        traj = run_search(cfg)
        v = start_state(cfg.shape, make_f(d, "householder")).amps
        for k in range(1, 13):
            v = g @ v
            diff = abs(abs(v[N // 2]) ** 2 - traj.populations[k])
            worst = max(worst, diff)
            assert diff < 1e-10
    report(4, f"matrix-power vs rank-1 kernel, N up to 81, 12 steps, "
              f"max deviation {worst:.2e}")


def test_criterion_5_sandwich_identity():
    h = hadamard()
    worst = 0.0
    for n in (1, 2, 3):
        hn = h
        for _ in range(n - 1):
            hn = np.kron(hn, h)
        N = 2**n
        aver = np.full(N, N**-0.5)
        for phi in (math.pi / 2, math.pi):
            m0 = np.eye(N, dtype=complex)
            m0[0, 0] = np.exp(1j * phi)
            lhs = hn @ m0 @ hn
            rhs = np.eye(N) + (np.exp(1j * phi) - 1) * np.outer(aver, aver)
            diff = np.max(np.abs(lhs - rhs))
            worst = max(worst, diff)
            assert diff < 1e-12
    report(5, f"H^(x)n M(0,phi) H^(x)n = M(aver,phi) for n<=3, "
              f"max entry deviation {worst:.2e}")


def test_criterion_6_f_contract():
    worst_unit = worst_col = 0.0
    for d in range(2, 17):
        for kind in ("householder", "dft", "random:7"):
            rep = validate_f(make_f(d, kind))
            worst_unit = max(worst_unit, rep.unitarity_defect)
            worst_col = max(worst_col, rep.column_deviation)
            assert rep.unitarity_defect < 1e-10
            assert rep.column_deviation < 1e-12
    worst_reg = 0.0
    for n in range(1, 6):
        shape = QuditShape(3, n)
        s = start_state(shape, make_f(3, "householder"))
        dev = float(np.max(np.abs(np.abs(s.amps) - shape.N**-0.5)))
        worst_reg = max(worst_reg, dev)
        assert dev < 1e-12
    report(6, f"d in 2..16 x 3 kinds: unitarity {worst_unit:.2e}, column "
              f"{worst_col:.2e}; register moduli deviation {worst_reg:.2e}")


def test_criterion_7_pulse_phase_law():
    start = time.perf_counter()
    worst_phase = worst_leak = 0.0
    for d in (2, 3, 4):
        couplings = coupling_design(d)
        for delta_t in np.arange(0.0, 3.0 + 1e-9, 0.25):
            job = PulseJob(
                couplings=couplings, detuning=float(delta_t), rms_area=2 * math.pi
            )
            fit = extract_reflection(propagate(job), couplings)
            err = phase_distance(fit.phase, analytic_sech_phase(float(delta_t)))
            worst_phase = max(worst_phase, err)
            worst_leak = max(worst_leak, fit.leakage)
            assert err < 1e-4, f"d={d} deltaT={delta_t}: {err}"
            assert fit.leakage < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"13 detunings x d in {{2,3,4}}: max phase error {worst_phase:.2e}, "
              f"max leakage {worst_leak:.2e}, {elapsed:.1f} s")


def test_criterion_8_end_to_end_pulse_synthesis():
    worst = 0.0
    gate3 = None
    for d in (2, 3, 4):
        rep = verify_f_pulse(d)
        worst = max(worst, rep.deviation)
        assert rep.deviation < 1e-5
        if d == 3:
            gate3 = rep.gate
    traj = run_search(
        config(3, 5, deterministic_schedule(243), marked=42), f_gate=gate3
    )
    assert traj.populations[12] >= 0.999
    assert traj.peak_step == 12
    report(8, f"pulse gate deviation <= {worst:.2e} for d in {{2,3,4}}; 5-qutrit "
              f"search with the pulse gate reaches {traj.populations[12]:.9f}")


def test_criterion_9_trajectory_invariance():
    sched = deterministic_schedule(27)
    trajs = {
        kind: run_search(config(3, 3, sched, marked=20, f_kind=kind)).populations
        for kind in ("householder", "dft", "random:12345")
    }
    worst = 0.0
    base = trajs["householder"]
    for kind, pops in trajs.items():
        diff = float(np.max(np.abs(pops - base)))
        worst = max(worst, diff)
        assert diff < 1e-9, kind
    report(9, f"householder/dft/random trajectories agree to {worst:.2e}")


def test_criterion_10_performance():
    # the run's own step: a whole run_search, tiled and replayed as every run
    # is, timed per step, and its transient memory over the call
    shape = QuditShape(3, 12)  # N = 531441
    cfg = config(3, 12, deterministic_schedule(shape.N), marked=12345)
    f = make_f(3, "householder")
    steps = cfg.schedule.steps

    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_search(cfg, f)
        timings.append((time.perf_counter() - t0) / steps)
    best = min(timings)
    assert best < 0.050, f"a step of the run took {best * 1e3:.1f} ms"

    state_bytes = 16 * shape.N
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    run_search(cfg, f)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    extra = peak - baseline
    # the run's own state plus its transient buffers stay within 2x the state
    assert extra <= 2 * state_bytes + (1 << 20), f"extra allocations {extra} bytes"
    report(10, f"N=3^12 run of {steps} steps at {best * 1e3:.2f} ms per step, "
               f"peak allocations {extra / state_bytes:.2f}x the state size")
