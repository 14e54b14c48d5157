import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsearch import engine, reflections
from quditsearch.engine import (
    ExperimentConfig,
    Trajectory,
    diffusion_axis,
    run_search,
    superposition_register,
)
from quditsearch.fgates import FGate, dft, householder_f, make_f, validate_f
from quditsearch.register import MAX_STATES, BasisIndex, QuditShape, population, _squared_norm
from quditsearch.reflections import apply_local_gate, grover_step, oracle
from quditsearch.scheduler import (
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
)

from helpers import (
    basis_state,
    config,
    dense_grover_matrix,
    diffusion_via_gates,
    kron_power_outer,
    two_state_populations,
)


def extended(cfg, steps):
    """cfg with its schedule's phase run for ``steps`` steps instead."""
    schedule = custom_schedule(cfg.shape.N, cfg.schedule.phi, steps)
    return dataclasses.replace(cfg, schedule=schedule)


# ---- run_search -----------------------------------------------------------


def test_five_qutrit_search_reaches_unit_population():
    cfg = config(3, 5, deterministic_schedule(243), marked=42)
    traj = run_search(cfg)
    assert len(traj.populations) == 13
    assert traj.populations[12] >= 0.999
    assert traj.peak_step == 12
    assert traj.populations[0] == pytest.approx(1 / 243, abs=1e-12)


def test_two_qubit_pi_search_is_exact_after_one_step():
    cfg = config(2, 2, canonical_schedule(4), marked=2)
    traj = run_search(cfg)
    assert traj.populations[1] == pytest.approx(1.0, abs=1e-12)
    # canonical step count overshoots: the peak sits at step 1
    assert traj.peak_step == 1


def test_zero_step_schedule():
    cfg = config(3, 2, custom_schedule(9, math.pi, 0))
    traj = run_search(cfg)
    assert traj.populations.tolist() == [pytest.approx(1 / 9, abs=1e-15)]
    assert traj.peak_step == 0


def test_trajectory_peak_is_read_off_its_populations():
    traj = Trajectory(np.array([0.1, 0.7, 0.3, 0.7]))
    assert (traj.peak_step, traj.peak_population) == (1, 0.7)  # earliest on ties
    assert type(traj.peak_step) is int and type(traj.peak_population) is float
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["populations"]


def test_populations_within_unit_bound():
    for d, n in [(2, 4), (3, 3), (5, 2)]:
        cfg = config(d, n, deterministic_schedule(d**n), marked=1)
        traj = run_search(extended(cfg, cfg.schedule.steps + 20))
        assert np.all(traj.populations <= 1 + 1e-12)
        assert np.all(traj.populations >= 0)
        assert traj.peak_population >= 1 - 1e-6


# ---- steps past the schedule ---------------------------------------------------


def test_extended_run_shows_oscillatory_tail():
    sched = deterministic_schedule(243)
    cfg = config(3, 5, sched, marked=7)
    traj = run_search(extended(cfg, 40))
    assert len(traj.populations) == 41
    assert traj.populations.max() >= 1 - 1e-6
    assert traj.populations[sched.steps + 1 :].min() < 0.05


def test_extended_zero_extra_matches_run_search():
    cfg = config(3, 3, deterministic_schedule(27), marked=5)
    np.testing.assert_array_equal(
        run_search(extended(cfg, cfg.schedule.steps)).populations,
        run_search(cfg).populations,
    )


def test_single_qubit_pi_populations_repeat_with_period_three():
    # N=2 is a quarter-turn rotation; populations settle into a cycle
    cfg = config(2, 1, canonical_schedule(2))
    traj = run_search(extended(cfg, cfg.schedule.steps + 20))
    pops = traj.populations
    for k in range(len(pops) - 3):
        assert pops[k] == pytest.approx(pops[k + 3], abs=1e-9)
    np.testing.assert_allclose(
        pops, two_state_populations(2, math.pi, len(pops) - 1), rtol=0, atol=1e-12
    )


# ---- dense_grover_matrix ------------------------------------------------------


def test_dense_matrix_matches_hand_built_n4():
    # with the DFT gate the diffusion axis is the uniform vector, so the
    # operator is exactly (1 + (e^{i pi}-1)|s><s|)(1 + (e^{i pi}-1)|m><m|)
    cfg = config(2, 2, canonical_schedule(4), marked=1, f_kind="dft")
    got = dense_grover_matrix(cfg)
    s = np.full(4, 0.5)
    m_s = np.eye(4) - 2 * np.outer(s, s)
    m_m = np.diag([1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(got, m_s @ m_m, atol=1e-12)


def test_dense_matrix_unitary_n81():
    cfg = config(3, 4, deterministic_schedule(81), marked=3)
    g = dense_grover_matrix(cfg)
    assert np.max(np.abs(g.conj().T @ g - np.eye(81))) < 1e-10


@pytest.mark.parametrize("phi_mode", ["pi", "deterministic"])
def test_matrix_power_trajectory_matches_kernel(phi_mode):
    shape = QuditShape(3, 4)
    if phi_mode == "pi":
        sched = custom_schedule(81, math.pi, 12)
    else:
        sched = custom_schedule(81, deterministic_schedule(81).phi, 12)
    cfg = config(3, 4, sched, marked=17)
    g = dense_grover_matrix(cfg)
    v = superposition_register(shape, householder_f(3)).amps
    traj = run_search(cfg)
    for k in range(1, 13):
        v = g @ v
        assert abs(v[17]) ** 2 == pytest.approx(traj.populations[k], abs=1e-10)


def test_dense_matrix_size_limit():
    cfg = config(2, 11, deterministic_schedule(2048))
    with pytest.raises(ValueError, match="1024"):
        dense_grover_matrix(cfg)


# ---- invariants ------------------------------------------------------------------


def test_marked_element_independence():
    sched = deterministic_schedule(27)
    trajs = [
        run_search(config(3, 3, sched, marked=m)).populations for m in (0, 13, 26)
    ]
    for other in trajs[1:]:
        np.testing.assert_allclose(trajs[0], other, atol=1e-9)


def test_diffusion_path_equivalence():
    # the rank-1 diffusion in run_search against the local-gate sandwich
    sched = deterministic_schedule(27)
    direct = run_search(config(3, 3, sched, marked=11))
    f = householder_f(3)
    state = superposition_register(QuditShape(3, 3), f)
    gates = [population(state, 11)]
    for _ in range(sched.steps):
        oracle(state, 11, sched.phi)
        diffusion_via_gates(state, f.matrix, sched.phi)
        gates.append(population(state, 11))
    np.testing.assert_allclose(direct.populations, gates, atol=1e-9)


def test_trajectory_invariant_across_f_kinds():
    sched = deterministic_schedule(27)
    trajs = [
        run_search(config(3, 3, sched, marked=14, f_kind=kind)).populations
        for kind in ("householder", "dft", "random:3")
    ]
    for other in trajs[1:]:
        np.testing.assert_allclose(trajs[0], other, atol=1e-9)


def test_norm_preserved_over_long_run():
    shape = QuditShape(3, 5)
    sched = deterministic_schedule(243)
    state = superposition_register(shape, householder_f(3))
    axis = diffusion_axis(shape, householder_f(3))
    for _ in range(100):
        grover_step(state, 100, sched.phi, axis)
    assert abs(state.norm() - 1.0) < 1e-9


def test_run_search_holds_one_state_sized_array():
    # the axis is two factors of 729 entries, not a second N-sized vector;
    # the start state is their outer product, written into its own buffer
    # with nothing N-sized beside it
    cfg = config(3, 12, deterministic_schedule(3**12), marked=12345)
    run_search(cfg)  # zgeru is looked up on the first step, not in the trace
    tracemalloc.start()
    try:
        run_search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state_bytes = 16 * cfg.shape.N
    assert peak < state_bytes + (1 << 20), (
        f"run_search peaked at {(peak - state_bytes) / 1024:.0f} KiB beside the state"
    )


def test_superposition_register_builds_inside_its_buffer():
    # the outer product of the axis factors is written into the caller's
    # buffer, so a 3^12 build allocates the two 729-entry factors and
    # numpy's fixed ufunc buffer, nothing N-sized
    shape, f = QuditShape(3, 12), householder_f(3)
    buffer = np.empty(shape.N, dtype=np.complex128)
    tracemalloc.start()
    try:
        superposition_register(shape, f, buffer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"the build allocated {peak / 1024:.0f} KiB"


def test_pulse_style_custom_gate_override():
    # run_search accepts an explicit gate in place of the f_kind tag
    cfg = config(3, 3, deterministic_schedule(27), marked=2)
    base = run_search(cfg, f_gate=householder_f(3))
    np.testing.assert_allclose(base.populations, run_search(cfg).populations, atol=1e-12)
    alt = run_search(cfg, f_gate=dft(3))
    np.testing.assert_allclose(base.populations, alt.populations, atol=1e-9)


def test_explicit_gate_must_meet_f_contract():
    # every first-column modulus is 1/sqrt(3), but the columns are equal,
    # so the gate is not unitary
    cfg = config(3, 2, deterministic_schedule(9))
    gate = FGate(np.full((3, 3), 3**-0.5))
    with pytest.raises(ValueError, match="contract"):
        run_search(cfg, f_gate=gate)


def test_explicit_gate_of_another_dimension_is_refused():
    # dft(5) meets the F contract, but a d = 3 register needs a 3 x 3 gate
    cfg = config(3, 2, deterministic_schedule(9))
    with pytest.raises(ValueError, match=r"gate has shape \(5, 5\), expected \(3, 3\)"):
        run_search(cfg, f_gate=dft(5))


# ---- config validation --------------------------------------------------------------


def test_config_rejects_bad_marked():
    shape = QuditShape(3, 2)
    with pytest.raises(ValueError, match="outside"):
        ExperimentConfig(
            shape=shape,
            marked=BasisIndex(9),
            schedule=deterministic_schedule(9),
        )


def test_config_rejects_schedule_size_mismatch():
    shape = QuditShape(3, 2)
    with pytest.raises(ValueError, match="schedule"):
        ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, 0),
            schedule=deterministic_schedule(27),
        )


def test_unknown_f_kind_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown F kind"):
        config(3, 2, deterministic_schedule(9), f_kind="haar")
    with pytest.raises(ValueError, match="'random:seven': random:SEED needs an integer seed"):
        config(3, 2, deterministic_schedule(9), f_kind="random:seven")
    with pytest.raises(ValueError, match="seed >= 0"):
        config(3, 2, deterministic_schedule(9), f_kind="random:-1")


def test_superposition_register_equal_moduli():
    for n in range(1, 6):
        shape = QuditShape(3, n)
        s = superposition_register(shape, householder_f(3))
        np.testing.assert_allclose(np.abs(s.amps), shape.N**-0.5, atol=1e-12)


@pytest.mark.parametrize("kind", ["householder", "dft", "random:7"])
@pytest.mark.parametrize("d, n", [(2, 1), (3, 1), (2, 5), (3, 4), (5, 3)])
def test_superposition_register_matches_local_gates(kind, d, n):
    shape = QuditShape(d, n)
    f = make_f(d, kind)
    reference = basis_state(shape, 0)
    for k in range(n):
        apply_local_gate(reference, f.matrix, k)
    kron = superposition_register(shape, f).amps
    # the state is head times tail, the gates multiply factor by factor
    # left to right: the same n factors grouped differently, and for a
    # complex column numpy's vectorized multiply may fuse a multiply-add
    # that einsum's scalar loop rounds twice, so the last bits can differ
    np.testing.assert_allclose(kron, reference.amps, rtol=4 * np.finfo(float).eps, atol=0)


def test_superposition_register_owns_its_amplitudes():
    # n = 1 is F's first column itself; the state must not alias the gate
    f = householder_f(3)
    before = f.matrix.copy()
    s = superposition_register(QuditShape(3, 1), f)
    s.amps[:] = 0
    np.testing.assert_array_equal(f.matrix, before)


@pytest.mark.parametrize("kind", ["householder", "dft", "random:5"])
@pytest.mark.parametrize("d", [*range(2, 9), 16])
def test_kronecker_builds_match_outer_product_chain_to_the_bit(d, kind):
    # the axis factors' outer-product chains form every product np.kron
    # forms, with the same operands in the same order, and the start state
    # is the outer product of those factors, so every run starts exactly on
    # its axis; for every n with N <= 2^18, fresh and in a slab in the
    # middle of a stack, as _run_stack passes it, and the factors alone at
    # the largest n QuditShape allows (d = 2: n = 30, d = 16: n = 7)
    f = make_f(d, kind)
    column = np.array(f.matrix[:, 0], dtype=np.complex128)
    n = 1
    while d ** (n + 1) <= MAX_STATES:
        n += 1
    head, tail = diffusion_axis(QuditShape(d, n), f)
    assert head.tobytes() == kron_power_outer(column, n // 2).tobytes()
    assert tail.tobytes() == kron_power_outer(column, n - n // 2).tobytes()
    n = 1
    while d**n <= 2**18:
        shape = QuditShape(d, n)
        head, tail = diffusion_axis(shape, f)
        assert head.tobytes() == kron_power_outer(column, n // 2).tobytes()
        assert tail.tobytes() == kron_power_outer(column, n - n // 2).tobytes()
        reference = np.multiply.outer(head, tail).ravel().tobytes()
        assert superposition_register(shape, f).amps.tobytes() == reference
        stack = np.full(3 * shape.N, np.nan, dtype=np.complex128)
        slab = stack[shape.N:2 * shape.N]
        state = superposition_register(shape, f, out=slab)
        assert state.amps is slab and slab.tobytes() == reference
        assert np.isnan(stack[:shape.N]).all() and np.isnan(stack[2 * shape.N:]).all()
        n += 1


@pytest.mark.parametrize("out", ["strided", "complex64", "read-only", "too short", "2-D"])
def test_superposition_register_refuses_an_out_it_cannot_own(out):
    # each of these would be copied, so the state would not be the caller's buffer
    shape = QuditShape(3, 2)
    buffer = {
        "strided": np.zeros(2 * shape.N, dtype=np.complex128)[::2],
        "complex64": np.zeros(shape.N, dtype=np.complex64),
        "read-only": np.zeros(shape.N, dtype=np.complex128),
        "too short": np.zeros(shape.N - 1, dtype=np.complex128),
        "2-D": np.zeros((3, 3), dtype=np.complex128),
    }[out]
    buffer.flags.writeable = out != "read-only"
    with pytest.raises(ValueError, match="C-contiguous, writeable complex128 array of shape"):
        superposition_register(shape, householder_f(3), out=buffer)
    assert not buffer.any()


SMALL_SHAPES = [(d, n) for d in range(2, 6) for n in range(1, 13) if d**n <= 4096]


@settings(max_examples=40, deadline=None)
@given(
    dn=st.sampled_from(SMALL_SHAPES),
    data=st.data(),
    phi=st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True),
)
def test_run_search_matches_two_state_model(dn, data, phi):
    d, n = dn
    shape = QuditShape(d, n)
    marked = data.draw(st.integers(0, shape.N - 1), label="marked")
    steps = data.draw(st.integers(0, 30), label="steps")
    cfg = config(d, n, custom_schedule(shape.N, phi, steps), marked=marked)
    traj = run_search(cfg)
    np.testing.assert_allclose(
        traj.populations, two_state_populations(shape.N, phi, steps), rtol=0, atol=1e-9
    )


# ---- carried overlap ------------------------------------------------------------------


def off_norm_gate():
    # passes validate_f, but its first column has squared norm 1 + 6e-11
    matrix = householder_f(3).matrix.copy()
    matrix[:, 0] *= 1.0 + 3e-11
    return FGate(matrix)


@pytest.mark.parametrize("gate", ["random:11", "off-norm"])
def test_carried_overlap_tracks_measured_over_long_run(gate, monkeypatch):
    f = off_norm_gate() if gate == "off-norm" else make_f(3, gate)
    assert validate_f(f).passed
    column_norm2 = float(np.sum(np.abs(f.matrix[:, 0]) ** 2))
    if gate == "off-norm":
        assert abs(column_norm2 - 1.0) > 1e-11
    steps, phi, marked = 2000, 1.9, 1234
    cfg = config(3, 7, custom_schedule(3**7, phi, steps), marked=marked)
    # run_search raises if its final carried-vs-measured gap exceeds this
    monkeypatch.setattr(engine, "OVERLAP_TOLERANCE", 1e-11)
    traj = run_search(cfg, f_gate=f)
    # reference: the overlap measured with zgemv and zdotc in every step
    state = superposition_register(cfg.shape, f)
    axis = diffusion_axis(cfg.shape, f)
    reference = [population(state, marked)]
    for _ in range(steps):
        grover_step(state, marked, phi, axis)
        reference.append(population(state, marked))
    np.testing.assert_allclose(traj.populations, reference, rtol=0, atol=1e-12)


def plant_in_each_update(fault, monkeypatch):
    """Wrap rank1_kernel so that each update it returns first calls
    fault(amps, alpha, head), amps the block's amplitudes flat in the order
    of the stack, after the step's oracle kicks, and head the bound one; the
    update then takes the (alpha, head) that fault returns, another head
    through a binding of its own, or is skipped if fault returns None."""
    kernel = reflections.rank1_kernel

    def faulty_kernel(matrix, tail, head):
        update = kernel(matrix, tail, head)
        amps = matrix.reshape(-1, order="F")
        assert np.shares_memory(amps, matrix)

        def faulty(alpha):
            planted = fault(amps, alpha, head)
            if planted is not None:
                alpha, other = planted
                (update if other is head else kernel(matrix, tail, other))(alpha)

        return faulty

    monkeypatch.setattr(reflections, "rank1_kernel", faulty_kernel)


def test_wrong_carried_overlap_raises(monkeypatch):
    # an undone oracle kick leaves the carried overlap wrong
    cfg = config(3, 3, deterministic_schedule(27), marked=5)
    undo = np.exp(-1j * cfg.schedule.phi)

    def skip_kick(amps, alpha, head):
        amps[5] *= undo
        return alpha, head

    plant_in_each_update(skip_kick, monkeypatch)
    with pytest.raises(RuntimeError, match="carried axis overlap"):
        run_search(cfg)

    # a NaN written at the mark leaves a NaN drift, which must fail the check too
    def write_nan(amps, alpha, head):
        amps[5] = np.nan
        return alpha, head

    monkeypatch.undo()
    plant_in_each_update(write_nan, monkeypatch)
    with pytest.raises(RuntimeError, match="carried axis overlap"):
        run_search(cfg)


# ---- the run tiled in time ------------------------------------------------------


def stepwise_search(cfg, f):
    """The untiled loop: every step a grover_step over the whole state, with
    the overlap carried as run_search carries it; (populations, final amplitudes)."""
    marked, phi = cfg.marked.flat, cfg.schedule.phi
    state = superposition_register(cfg.shape, f)
    axis = head, tail = diffusion_axis(cfg.shape, f)
    kick = complex(np.exp(1j * phi)) - 1.0
    norm2 = _squared_norm(head) * _squared_norm(tail)
    axis_m = (head[marked // tail.size] * tail[marked % tail.size]).conjugate()
    overlap = complex(norm2)
    populations = [population(state, marked)]
    for _ in range(cfg.schedule.steps):
        overlap += kick * state.amps.item(marked) * axis_m
        grover_step(state, marked, phi, axis, overlap)
        overlap *= 1.0 + kick * norm2
        populations.append(population(state, marked))
    return np.array(populations), state.amps


def captured(search, monkeypatch):
    """search() with each register it builds captured; (its result, their final amplitudes)."""
    states = []
    build = engine.superposition_register

    def capture(*args):
        states.append(build(*args))
        return states[-1]

    monkeypatch.setattr(engine, "superposition_register", capture)
    result = search()
    monkeypatch.setattr(engine, "superposition_register", build)
    return result, [s.amps for s in states]


def tiled_search(cfg, monkeypatch, columns):
    """run_search with blocks of ``columns`` columns; (trajectory, final amplitudes)."""
    tail_size = cfg.shape.d ** (cfg.shape.n - cfg.shape.n // 2)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * tail_size * columns)
    traj, [amps] = captured(lambda: run_search(cfg), monkeypatch)
    return traj, amps


@pytest.mark.parametrize("kind", ["householder", "dft", "random:3"])
@pytest.mark.parametrize("n", [1, 5, 6, 7])
@pytest.mark.parametrize("where", ["first", "interior", "last"])
def test_tiled_run_matches_stepwise_loop_to_the_bit(where, n, kind, monkeypatch):
    # blocks of 4 columns: 9 or 27 columns end in a ragged block of 1 or 3
    shape, columns = QuditShape(3, n), 4
    marked = {"first": 0, "interior": shape.N // 2, "last": shape.N - 1}[where]
    head_size, tail_size = 3 ** (n // 2), 3 ** (n - n // 2)
    blocks = -(-head_size // columns)
    if n > 1:
        assert head_size % columns and blocks >= 3
        block = marked // tail_size // columns
        assert block == {"first": 0, "interior": blocks // 2, "last": blocks - 1}[where]
    # a schedule run past N_G, as custom schedules allow
    steps = 3 * deterministic_schedule(shape.N).steps + 5
    cfg = config(3, n, custom_schedule(shape.N, 2.2, steps), marked=marked, f_kind=kind)
    traj, amps = tiled_search(cfg, monkeypatch, columns)
    populations, reference = stepwise_search(cfg, make_f(3, kind))
    np.testing.assert_array_equal(traj.populations, populations)
    np.testing.assert_array_equal(amps, reference)


@pytest.mark.parametrize("fault", [None, "skipped coefficient", "conjugated head"])
def test_fault_in_a_replayed_block_fails_the_overlap_check(fault, monkeypatch):
    # the marked block takes the first `steps` updates; a fault planted in a
    # later call lands on a block that does not hold the marked amplitude, so
    # the populations stay right and only the final check can see it
    cfg = config(3, 6, deterministic_schedule(3**6), marked=5, f_kind="random:3")
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * 27 * 4)
    steps = cfg.schedule.steps
    calls = []

    def after_the_marked_block(amps, alpha, head):
        calls.append(alpha)
        if len(calls) > steps:
            if fault == "skipped coefficient" and len(calls) == steps + 3:
                return None
            if fault == "conjugated head":
                head = head.conj()
        return alpha, head

    plant_in_each_update(after_the_marked_block, monkeypatch)
    if fault is None:
        assert run_search(cfg).peak_population >= 1 - 1e-9
    else:
        with pytest.raises(RuntimeError, match="carried axis overlap"):
            run_search(cfg)
    assert len(calls) == 7 * steps  # 27 columns in 7 blocks


# ---- several searches as one stacked state ----------------------------------------


def captured_searches(cfgs, monkeypatch):
    """run_searches(cfgs); (trajectories, each run's final amplitudes)."""
    return captured(lambda: engine.run_searches(cfgs), monkeypatch)


@pytest.mark.parametrize("d, n, kind", [
    (2, 6, "dft"), (3, 5, "random:3"), (5, 3, "householder"), (3, 1, "random:8"), (2, 1, "dft"),
])
@pytest.mark.parametrize("stack", ["one", "cut", "tiled"])
def test_stacked_runs_match_one_run_at_a_time_to_the_bit(d, n, kind, stack, monkeypatch):
    shape = QuditShape(d, n)
    # 7 runs, one mark twice; a schedule run past N_G, as custom schedules allow
    marks = [0, shape.N - 1, shape.N // 2, 0, 1, shape.N // 3, shape.N - 2 if shape.N > 2 else 1]
    steps = 3 * deterministic_schedule(shape.N).steps + 5
    schedule = custom_schedule(shape.N, 2.2, steps)
    cfgs = [config(d, n, schedule, marked=m, f_kind=kind) for m in marks]
    references = [captured(lambda: run_search(cfg), monkeypatch) for cfg in cfgs]
    if stack == "cut":  # stacks of 3, 3 and 1
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * shape.N * 3)
    elif stack == "tiled":  # one run per stack, in blocks of one column
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * d ** (n - n // 2))
    trajectories, amps = captured_searches(cfgs, monkeypatch)
    assert len(trajectories) == len(amps) == len(cfgs)
    for traj, final, (reference, [reference_amps]) in zip(trajectories, amps, references):
        assert len(traj.populations) == steps + 1
        np.testing.assert_array_equal(traj.populations, reference.populations)
        np.testing.assert_array_equal(final, reference_amps)


def test_stacked_runs_share_one_buffer_per_stack(monkeypatch):
    # each run's state is the register superposition_register returned,
    # a slab of its stack, left in its final state
    shape = QuditShape(3, 4)
    cfgs = [config(3, 4, deterministic_schedule(shape.N), marked=m) for m in (3, 40, 77, 80, 3)]
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * shape.N * 2)
    trajectories, amps = captured_searches(cfgs, monkeypatch)
    bases = [a.base for a in amps]
    assert bases[0] is bases[1] and bases[2] is bases[3]
    assert bases[1] is not bases[2] and bases[4] is not bases[3]
    assert all(a.base.size <= 2 * shape.N for a in amps)
    for cfg, traj, final in zip(cfgs, trajectories, amps):
        assert traj.peak_population >= 1 - 1e-9
        assert abs(final[cfg.marked.flat]) ** 2 == traj.populations[-1]


def test_stacked_zero_step_schedule():
    cfgs = [config(3, 2, custom_schedule(9, math.pi, 0), marked=m) for m in (0, 4, 8)]
    for traj in engine.run_searches(cfgs):
        assert traj.populations.tolist() == [pytest.approx(1 / 9, abs=1e-15)]
    assert engine.run_searches([]) == []


def test_stacked_runs_take_an_explicit_gate():
    cfgs = [config(3, 3, deterministic_schedule(27), marked=m) for m in (2, 19)]
    gate = make_f(3, "random:4")
    for cfg, traj in zip(cfgs, engine.run_searches(cfgs, f_gate=gate)):
        np.testing.assert_array_equal(traj.populations, run_search(cfg, f_gate=gate).populations)
    bad = FGate(gate.matrix * 1.001)
    with pytest.raises(ValueError, match="fails its contract"):
        engine.run_searches(cfgs, f_gate=bad)


def test_fault_in_one_stacked_run_fails_its_overlap_check(monkeypatch):
    # undoing run 3's oracle kick leaves only that run's carried overlap
    # wrong; the stacked update and the other runs stay consistent
    marks = [0, 5, 9, 13, 20]
    cfgs = [config(3, 3, deterministic_schedule(27), marked=m) for m in marks]
    undo = np.exp(-1j * cfgs[0].schedule.phi)

    def skip_run_3_kick(amps, alpha, head):
        amps[3 * 27 + marks[3]] *= undo  # run 3's slab starts at 3 N
        return alpha, head

    plant_in_each_update(skip_run_3_kick, monkeypatch)
    with pytest.raises(RuntimeError, match=r"carried axis overlap .* marked index 13 "):
        engine.run_searches(cfgs)
    # the same runs without run 3 pass
    monkeypatch.undo()
    del cfgs[3]
    assert all(t.peak_population >= 1 - 1e-9 for t in engine.run_searches(cfgs))


@pytest.mark.parametrize("change", ["shape", "schedule", "f_kind"])
def test_stacked_runs_must_share_shape_schedule_and_f(change):
    base = config(3, 3, deterministic_schedule(27), marked=1)
    other = {
        "shape": config(3, 2, deterministic_schedule(9), marked=1),
        "schedule": config(3, 3, custom_schedule(27, 1.0, 4), marked=1),
        "f_kind": config(3, 3, deterministic_schedule(27), marked=1, f_kind="dft"),
    }[change]
    with pytest.raises(ValueError, match="one shape, schedule and f_kind"):
        engine.run_searches([base, base, other])
