import contextlib
import io
import json
import math
import os
import resource
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsearch import engine, reflections
from quditsearch.cli import main
from quditsearch.register import MAX_STATES

from helpers import needs_numpys_zgeru, run_fresh, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---- search ---------------------------------------------------------------


def test_search_five_qutrits(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "3", "--n", "5",
                           "--mode", "deterministic")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["step", "population"]
    assert len(rows) == 13
    assert rows[0][0] == "0"
    assert float(rows[12][1]) >= 0.999


def test_search_two_qubit_pi(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "2", "--n", "2", "--mode", "pi")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_search_rejects_d1(capsys):
    code, _, err = run_cli(capsys, "search", "--d", "1", "--n", "3")
    assert code == 2
    assert "d >= 2" in err


def test_search_json_payload(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "3", "--n", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schedule", "trajectory", "peak_step", "peak_population"}
    assert payload["schedule"]["N"] == 27
    assert len(payload["trajectory"]) == payload["schedule"]["steps"] + 1
    assert payload["trajectory"][payload["peak_step"]] == payload["peak_population"]


def test_search_csv_round_trip(capsys):
    from quditsearch.engine import ExperimentConfig, run_search
    from quditsearch.register import BasisIndex, QuditShape
    from quditsearch.scheduler import deterministic_schedule

    code, out, _ = run_cli(capsys, "search", "--d", "3", "--n", "4", "--marked", "9")
    assert code == 0
    _, rows = parse_csv(out)
    shape = QuditShape(3, 4)
    traj = run_search(
        ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, 9),
            schedule=deterministic_schedule(81),
        )
    )
    parsed = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(parsed, traj.populations, rtol=1e-11, atol=1e-12)


def test_search_custom_mode_flag_rules(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "2", "--n", "2",
                           "--mode", "custom", "--phi", str(math.pi), "--steps", "6")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 7
    code, _, err = run_cli(capsys, "search", "--d", "2", "--n", "2",
                           "--mode", "custom")
    assert code == 2 and "custom" in err
    code, _, err = run_cli(capsys, "search", "--d", "2", "--n", "2",
                           "--phi", "1.0")
    assert code == 2 and "custom" in err
    code, out, err = run_cli(capsys, "search", "--d", "2", "--n", "2",
                             "--mode", "custom", "--phi", "nan", "--steps", "2")
    assert code == 2 and out == "" and "finite" in err


def test_search_byte_identical_runs(capsys):
    argv = ["search", "--d", "3", "--n", "3", "--f", "random:42",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_out_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "search", "--d", "2", "--n", "3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header == ["step", "population"]
    assert len(rows) >= 2


def test_search_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(capsys, "search", "--d", "2", "--n", "2",
                           "--out", str(target))
    assert code == 2
    assert err.startswith("error:")


def test_search_sweep_ordered_output(capsys):
    code, out, _ = run_cli(capsys, "search", "--d", "2", "--n", "3",
                           "--sweep", "0,3,5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["marked", "step", "population"]
    marks = [row[0] for row in rows]
    steps_per_run = len(rows) // 3
    assert marks == ["0"] * steps_per_run + ["3"] * steps_per_run + ["5"] * steps_per_run
    # all runs see the same populations (marked independence)
    pops = np.array([float(r[2]) for r in rows]).reshape(3, -1)
    np.testing.assert_allclose(pops[0], pops[1], atol=1e-9)


def test_search_sweep_checks_every_mark_before_any_search(capsys, monkeypatch):
    # a bad mark late in the list fails before the first search builds a state
    built = []
    monkeypatch.setattr(engine, "superposition_register", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, "search", "--d", "2", "--n", "3",
                             "--sweep", "0,1,2,3,4,5,6,8")
    assert (code, out, err) == (2, "", "error: flat index 8 outside [0, 8)\n")
    assert built == []


@pytest.mark.parametrize("marked", ["0", "1"])
def test_search_sweep_conflicts_with_marked(capsys, marked):
    # "0" too: argparse would take a marked equal to a default 0 as unset
    code, out, err = run_cli(capsys, "search", "--d", "2", "--n", "3",
                             "--marked", marked, "--sweep", "0,1")
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_search_sweep_of_no_marks_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "search", "--d", "3", "--n", "2", "--sweep", ",")
    assert (code, out) == (2, "")
    assert "--sweep needs a comma-separated list" in err


@pytest.mark.parametrize("kind", ["random:", "random:x", "random: +1_0 "])
def test_search_random_f_without_an_integer_seed_is_usage_error(capsys, kind):
    code, out, err = run_cli(capsys, "search", "--d", "3", "--n", "2", "--f", kind)
    assert (code, out) == (2, "")
    assert err == f"error: F kind {kind!r}: random:SEED needs an integer seed >= 0\n"


def test_search_missing_required(capsys):
    code, _, err = run_cli(capsys, "search")
    assert code == 2
    assert "--d" in err


def test_search_without_a_zgeru_is_runtime_error(capsys, monkeypatch):
    # neither numpy's BLAS nor scipy has a zgeru for the step: exit 1 with one
    # line, not a traceback; the lookup's cache is emptied before and after
    monkeypatch.setattr(reflections, "_ZGERU", "no_such_zgeru_64_")
    monkeypatch.setitem(sys.modules, "scipy.linalg.blas", None)
    reflections._zgeru.cache_clear()
    try:
        code, out, err = run_cli(capsys, "search", "--d", "2", "--n", "3")
    finally:
        reflections._zgeru.cache_clear()
    assert (code, out) == (1, "")
    assert err.startswith("error: numpy ") and err.count("\n") == 1


# ---- schedule ------------------------------------------------------------


def test_schedule_n243(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--N", "243")
    assert code == 0
    values = dict(row for row in parse_csv(out)[1])
    assert values["j"] == "12"
    assert values["steps"] == "12"
    assert values["canonical_steps"] == "12"
    assert float(values["phi"]) == pytest.approx(2.72910798445, abs=1e-10)
    assert float(values["beta"]) == pytest.approx(0.0641941102379, abs=1e-12)


def test_schedule_n4(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--N", "4")
    assert code == 0
    values = dict(row for row in parse_csv(out)[1])
    assert values["j"] == "2"
    assert values["steps"] == "3"
    assert float(values["phi"]) == pytest.approx(0.922442026906, abs=1e-10)


def test_schedule_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "schedule", "--N", "1")
    assert code == 2
    assert ">= 2" in err
    # an N past the float range is refused, not an OverflowError traceback
    code, _, err = run_cli(capsys, "schedule", "--N", str(2**1100))
    assert code == 2
    assert err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("exponent, code", [(100, 0), (110, 2), (200, 2)])
def test_schedule_past_double_precision_is_usage_error(capsys, exponent, code):
    # 2**100 still resolves its step index (about 8.8e14 steps); past about
    # 2**102.7 no double can, and the message names N's size, not its digits
    status, out, err = run_cli(capsys, "schedule", "--N", str(2**exponent))
    assert status == code
    if code == 0:
        assert "steps,884279719003555" in out
    else:
        assert out == ""
        assert f"N has {exponent + 1} bits" in err and str(2**exponent) not in err


def test_schedule_requires_size(capsys):
    code, _, err = run_cli(capsys, "schedule")
    assert code == 2
    code, _, err = run_cli(capsys, "schedule", "--N", "9", "--d", "3", "--n", "2")
    assert code == 2


# ---- pulse-check ------------------------------------------------------------


def test_pulse_check_resonant(capsys):
    code, out, _ = run_cli(capsys, "pulse-check", "--d", "3", "--deltaT", "0")
    assert code == 0
    values = dict(row for row in parse_csv(out)[1])
    assert float(values["extracted_phi"]) == pytest.approx(math.pi, abs=1e-4)
    assert float(values["residual"]) < 1e-6
    assert float(values["analytic_phi"]) == pytest.approx(math.pi, abs=1e-12)


def test_pulse_check_detuned(capsys):
    code, out, _ = run_cli(capsys, "pulse-check", "--d", "3", "--deltaT", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extracted_phi"] == pytest.approx(math.pi / 2, abs=1e-4)
    assert payload["analytic_phi"] == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("delta_t, area, phi", [
    ("0.5", "12.566370614359172", "-1.25759257283"),  # 4 pi
    ("0.5", "18.84955592153876", "1.68466277578"),  # 6 pi
    ("-1.5", "6.283185307179586", "-1.1760052071"),  # 2 pi, phase past pi
])
def test_pulse_check_analytic_phase_follows_the_area(capsys, delta_t, area, phi):
    # the law of a 2k pi area, printed on the extracted phase's branch
    code, out, _ = run_cli(capsys, "pulse-check", "--d", "3", "--deltaT", delta_t,
                           "--area", area)
    assert code == 0
    values = dict(row for row in parse_csv(out)[1])
    assert values["extracted_phi"] == values["analytic_phi"] == phi


def test_pulse_check_off_return_area_fails(capsys):
    code, _, err = run_cli(capsys, "pulse-check", "--d", "4", "--area", "12.566")
    assert code == 1
    assert "leakage" in err


@pytest.mark.parametrize("flag,value", [("--deltaT", "nan"), ("--area", "inf")])
def test_pulse_check_rejects_non_finite(flag, value):
    # a fresh interpreter with a timeout, so a hanging integration fails the test
    proc = run_fresh("-m", "quditsearch", "pulse-check", "--d", "3", flag, value)
    assert proc.returncode == 2
    assert "finite" in proc.stderr


@pytest.mark.parametrize("flag,value,limit", [("--deltaT", "1e5", "100"),
                                              ("--area", "-2000", "1000"),
                                              ("--d", "17", "16"),
                                              ("--d", "1000000000", "16")])
def test_pulse_check_refuses_inputs_past_the_limits(flag, value, limit):
    # a fresh interpreter with a timeout: --deltaT 1e5 would integrate for
    # tens of minutes if it were accepted, and --d 1000000000 is refused
    # before its 7.5 GiB of couplings are allocated (the address-space cap
    # turns a missed check into a failed allocation, exit 1)
    proc = run_fresh("-m", "quditsearch", "pulse-check", "--d", "3", flag, value,
                     preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert f"exceeds the limit {limit}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_search_refuses_a_huge_register_fast():
    # d**n is never formed for an n that cannot fit; a fresh interpreter with a
    # timeout, so a slow refusal fails the test
    proc = run_fresh("-m", "quditsearch", "search", "--d", "3", "--n", "1000000000",
                     timeout=10)
    assert proc.returncode == 2
    assert "dense-storage limit" in proc.stderr


def test_search_refuses_too_many_custom_steps_fast():
    # 10^8 steps would run for minutes before the first output line; a fresh
    # interpreter with a timeout, so a slow refusal fails the test
    proc = run_fresh("-m", "quditsearch", "search", "--d", "2", "--n", "2", "--mode",
                     "custom", "--phi", "1", "--steps", "100000000", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "<= 1000000" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_search_at_the_largest_d_builds_no_gate():
    # a tag resolves to F's first column, so a search never builds the dense
    # d x d gate: 256 MiB at d = 4096, where the run peaked at 414 MiB RSS
    # for a 64 KiB state.  The peak is VmHWM, the process's own high-water
    # mark: ru_maxrss keeps the parent's across fork and exec
    probe = ("import sys; from quditsearch.cli import main; "
             "code = main(['search', '--d', '4096', '--n', '1']); "
             "peak = [line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM:')]; "
             "print(code, *peak, file=sys.stderr)")
    proc = run_fresh("-c", probe)
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 0 and proc.stdout.startswith("step,population\n0,0.000244140625\n")
    assert peak_kib < 64 << 10, f"search peaked at {peak_kib / 1024:.1f} MiB RSS"


def cap_address_space():
    limit = 4 << 30  # 4 GiB: a failed allocation, never a host out of memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    pytest.param(["validate-f", "--d", "3000000"], id="validate-f"),
    pytest.param(["search", "--d", "3000000", "--n", "1"], id="search"),
    pytest.param(["validate-f", "--d", "4097", "--f", "dft"], id="validate-f-4097"),
    pytest.param(["search", "--d", "4097", "--n", "1"], id="search-4097"),
])
def test_gate_too_large_is_refused_before_allocation(argv):
    # F is a dense d x d matrix: 65.5 TiB at d = 3000000, and its check costs
    # O(d^3); the capped address space and the timeout fail a missed check
    proc = run_fresh("-m", "quditsearch", *argv, preexec_fn=cap_address_space, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "exceeds the limit 4096" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pulse_check_gaussian_has_no_analytic_phase(capsys):
    code, out, _ = run_cli(capsys, "pulse-check", "--d", "2",
                           "--shape", "gaussian", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic_phi"] is None
    assert payload["extracted_phi"] == pytest.approx(math.pi, abs=1e-4)


# ---- validate-f ----------------------------------------------------------------


def test_validate_f_dft(capsys):
    code, out, _ = run_cli(capsys, "validate-f", "--d", "7", "--f", "dft")
    assert code == 0
    values = dict(row for row in parse_csv(out)[1])
    assert values["passed"] == "True"
    assert float(values["unitarity_defect"]) < 1e-10


def test_validate_f_householder(capsys):
    code, out, _ = run_cli(capsys, "validate-f", "--d", "3", "--f", "householder")
    assert code == 0


def test_validate_f_random_seed_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "validate-f", "--d", "16", "--f", "random:42")
    code2, out2, _ = run_cli(capsys, "validate-f", "--d", "16", "--f", "random:42")
    assert code1 == code2 == 0
    assert out1 == out2


def test_validate_f_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "validate-f", "--d", "3", "--f", "haar")
    assert code == 2
    assert "unknown F kind" in err


def test_validate_f_rejects_d1(capsys):
    code, out, err = run_cli(capsys, "validate-f", "--d", "1", "--f", "dft")
    assert (code, out) == (2, "")
    assert "dft needs d >= 2" in err


# ---- golden output ----------------------------------------------------------

# Exact stdout, bit for bit; the search's schedule block pins the key order
# N, beta, j, phi, steps, mode that JSON readers of earlier output rely on.
GOLDEN_STDOUT = {
    ("schedule", "--N", "243", "--format", "json"): """\
{
  "N": 243,
  "beta": 0.06419411023785652,
  "j": 12,
  "phi": 2.7291079844513946,
  "steps": 12,
  "canonical_steps": 12
}
""",
    ("search", "--d", "3", "--n", "5", "--format", "json"): """\
{
  "schedule": {
    "N": 243,
    "beta": 0.06419411023785652,
    "j": 12,
    "phi": 2.7291079844513946,
    "steps": 12,
    "mode": "deterministic"
  },
  "trajectory": [
    0.004115226337448571,
    0.035278933687889286,
    0.09564821804384402,
    0.18142985524653088,
    0.2872338695477118,
    0.40641220560889807,
    0.5314764502681052,
    0.654568357079278,
    0.7679536088371036,
    0.8645077931718521,
    0.9381640555803207,
    0.9842943022066011,
    0.9999999999999845
  ],
  "peak_step": 12,
  "peak_population": 0.9999999999999845
}
""",
    # the README's pulse example
    ("pulse-check", "--d", "3", "--deltaT", "0.5", "--format", "json"): """\
{
  "d": 3,
  "shape": "sech",
  "deltaT": 0.5,
  "area": 6.283185307179586,
  "extracted_phi": 2.214297435588125,
  "analytic_phi": 2.214297435588181,
  "residual": 1.2063302474774457e-15,
  "leakage": 7.3284156728403035e-09
}
""",
    # a 2 pi sech pulse that propagate starts at the 256 steps it is accepted at
    ("pulse-check", "--d", "8", "--deltaT", "0.5", "--format", "json"): """\
{
  "d": 8,
  "shape": "sech",
  "deltaT": 0.5,
  "area": 6.283185307179586,
  "extracted_phi": 2.2142974355881253,
  "analytic_phi": 2.214297435588181,
  "residual": 1.570389276233363e-14,
  "leakage": 7.328416106913231e-09
}
""",
    # the input box's hardest pulse (8192 steps)
    ("pulse-check", "--d", "16", "--deltaT", "100", "--area", "999.0264638415542",
     "--format", "json"): """\
{
  "d": 16,
  "shape": "sech",
  "deltaT": 100.0,
  "area": 999.0264638415542,
  "extracted_phi": -0.5181344031860385,
  "analytic_phi": -0.5181344031881778,
  "residual": 3.132584743311996e-13,
  "leakage": 1.2957435021134911e-08
}
""",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_json_stdout_is_byte_identical_to_golden(capsys, argv):
    assert run_cli(capsys, *argv) == (0, GOLDEN_STDOUT[argv], "")


# The README's sweep example, every run in one stacked state.
GOLDEN_SWEEP = {
    "csv": """\
marked,step,population
0,0,0.0625
0,1,0.397089876149
0,2,0.814316627317
0,3,1
7,0,0.0625
7,1,0.397089876149
7,2,0.814316627317
7,3,1
15,0,0.0625
15,1,0.397089876149
15,2,0.814316627317
15,3,1
""",
    "json": """\
[
  {
    "marked": 0,
    "schedule": {
      "N": 16,
      "beta": 0.25268025514207865,
      "j": 3,
      "phi": 2.195057699090115,
      "steps": 3,
      "mode": "deterministic"
    },
    "trajectory": [
      0.062499999999999944,
      0.39708987614894664,
      0.8143166273170379,
      1.0000000000000044
    ],
    "peak_step": 3,
    "peak_population": 1.0000000000000044
  },
  {
    "marked": 7,
    "schedule": {
      "N": 16,
      "beta": 0.25268025514207865,
      "j": 3,
      "phi": 2.195057699090115,
      "steps": 3,
      "mode": "deterministic"
    },
    "trajectory": [
      0.06250000000000008,
      0.39708987614894736,
      0.8143166273170387,
      1.000000000000004
    ],
    "peak_step": 3,
    "peak_population": 1.000000000000004
  },
  {
    "marked": 15,
    "schedule": {
      "N": 16,
      "beta": 0.25268025514207865,
      "j": 3,
      "phi": 2.195057699090115,
      "steps": 3,
      "mode": "deterministic"
    },
    "trajectory": [
      0.06250000000000011,
      0.3970898761489475,
      0.8143166273170391,
      1.0000000000000044
    ],
    "peak_step": 3,
    "peak_population": 1.0000000000000044
  }
]
""",
}


@pytest.mark.parametrize("fmt", list(GOLDEN_SWEEP))
def test_sweep_stdout_is_byte_identical_to_golden(capsys, fmt):
    argv = ("search", "--d", "2", "--n", "4", "--sweep", "0,7,15", "--format", fmt)
    assert run_cli(capsys, *argv) == (0, GOLDEN_SWEEP[fmt], "")


# ---- parser-level behavior ---------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["search", "--d", "2", "--n", "2", "--config", "x.json"], id="search-config"),
    pytest.param(["schedule", "--N", "243", "--d", "3", "--n", "5"], id="schedule-d-n"),
])
def test_removed_flags_are_unrecognized(capsys, argv):
    # every value has one way in: its flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "search" in out


def test_calls_in_one_process_write_identical_bytes(capsys):
    # the parser is built once per process; a call with other flags in
    # between must leave nothing behind for the next one
    sweep = ["search", "--d", "2", "--n", "4", "--sweep", "0,7,15"]
    first = run_cli(capsys, *sweep)
    between = run_cli(capsys, *sweep, "--format", "json")
    second = run_cli(capsys, *sweep)
    assert first == second and first[0] == between[0] == 0
    assert first[1].startswith("marked,step,population\n") and between[1].startswith("[")


@pytest.mark.parametrize("argv, message", [
    (["search", "--d", "3"], "required: --n"),
    (["search", "--d", "2", "--n", "2", "--marked", "1", "--sweep", "1,2"], "not allowed with"),
])
def test_usage_error_after_a_successful_call_exits_2(capsys, argv, message):
    # the second parse of the cached parser still refuses a bad argv
    assert run_cli(capsys, "search", "--d", "2", "--n", "2", "--marked", "1")[0] == 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    assert run_cli(capsys, "schedule", "--N", "243")[0] == 0


def test_cli_import_leaves_integrator_unloaded():
    # only the pulse commands integrate; the others must not pay its import
    probe = "import sys, quditsearch.cli; print('scipy.integrate' in sys.modules)"
    assert run_python(probe).strip() == "False"


def test_pulse_check_leaves_integrator_unloaded():
    # a pulse is a product of Magnus exponentials: a cold pulse-check
    # imports numpy's matmul, not scipy.integrate
    probe = ("import contextlib, io, sys\n"
             "from quditsearch.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['pulse-check', '--d', '3'])\n"
             "print(code, 'scipy.integrate' in sys.modules)")
    assert run_python(probe).strip() == "0 False"


@needs_numpys_zgeru
def test_cli_import_leaves_blas_unloaded():
    # only a stepped state vector needs zgeru; importing the CLI binds nothing
    probe = ("import quditsearch.cli\n"
             "from quditsearch import reflections\n"
             "print(reflections._zgeru.cache_info().currsize)")
    assert run_python(probe).strip() == "0"
    # a search binds numpy's zgeru and imports no scipy module at all
    probe = ("import contextlib, io, sys\n"
             "from quditsearch import reflections\n"
             "from quditsearch.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['search', '--d', '3', '--n', '5'])\n"
             "print(code, reflections._zgeru.cache_info().currsize,\n"
             "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run_python(probe).strip() == "0 1 []"


def test_commands_without_a_step_leave_blas_unloaded():
    # zgeru is looked up on the first Grover step; a command that steps no
    # state leaves the loader's cache empty
    probe = ("import contextlib, io\n"
             "from quditsearch import reflections\n"
             "from quditsearch.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [main(['validate-f', '--d', '7', '--f', 'dft']),\n"
             "             main(['schedule', '--N', '243']),\n"
             "             main(['pulse-check', '--d', '3', '--deltaT', '0.5'])]\n"
             "print(codes, reflections._zgeru.cache_info().currsize)")
    assert run_python(probe).strip() == "[0, 0, 0] 0"


# One call of each command: search as the tiled lone run at 3^12 and as a
# stacked sweep at 3^9, then pulse-check, validate-f and schedule; stdout is
# each exit code and output.
COMMANDS = """\
import contextlib, io, sys
{block}
from quditsearch.cli import main
for argv in [
    ["search", "--d", "3", "--n", "12"],
    ["search", "--d", "3", "--n", "9", "--sweep", "17,1000,2500,7777,9999,12345,15000,19682"],
    ["pulse-check", "--d", "3", "--deltaT", "0.5"],
    ["validate-f", "--d", "7", "--f", "dft"],
    ["schedule", "--N", "243"],
]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, repr(out.getvalue()))
"""


@needs_numpys_zgeru
def test_commands_run_without_scipy():
    # scipy is a test-time reference only: with every scipy import made to
    # fail, each command exits 0 with the same stdout as with scipy importable
    without = run_python(COMMANDS.format(block='sys.modules["scipy"] = None'))
    with_scipy = run_python(COMMANDS.format(block="import scipy.linalg"))
    assert [line.split(" ", 1)[0] for line in without.splitlines()] == ["0"] * 5
    assert without == with_scipy


@needs_numpys_zgeru
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux's /proc/self/maps")
def test_searches_and_pulses_share_one_openblas():
    # the step's zgeru and the pulse's matmuls run on numpy's OpenBLAS, so a
    # process that does both maps one OpenBLAS library and runs one pool
    probe = """
import json, os
import numpy as np
from quditsearch import PulseJob, coupling_design, propagate, run_searches
from quditsearch import QuditShape, BasisIndex, ExperimentConfig, deterministic_schedule
shape = QuditShape(3, 9)
schedule = deterministic_schedule(shape.N)
run_searches([ExperimentConfig(shape, BasisIndex(m), schedule) for m in (17, 1000, 19682)])
propagate(PulseJob(couplings=coupling_design(8), detuning=5.0, rms_area=6 * np.pi))
with open("/proc/self/maps") as fh:
    libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
print(json.dumps(sorted(os.path.basename(path) for path in libraries)))
"""
    libraries = json.loads(run_python(probe))
    assert len(libraries) == 1, libraries


# A search through the CLI whose stdout is the number of states it built, a
# sha256 of its CSV, and a sha256 of the raw bits of each trajectory and
# final state, not the CSV's 12 digits alone.
RAW_BITS = """\
import contextlib, hashlib, io
from quditsearch import cli, engine
digest, build, states = hashlib.sha256(), engine.superposition_register, []
def capture(*args):
    states.append(build(*args))
    return states[-1]
def hashed(search):
    def run(cfg):
        trajectories = search(cfg)
        for traj in trajectories if isinstance(trajectories, list) else [trajectories]:
            digest.update(traj.populations.tobytes())
        return trajectories
    return run
engine.superposition_register = capture
cli.run_search, cli.run_searches = hashed(cli.run_search), hashed(cli.run_searches)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(['search', *{argv!r}])
for state in states:
    digest.update(state.amps.tobytes())
print(len(states), hashlib.sha256(out.getvalue().encode()).hexdigest(), digest.hexdigest())
"""


@pytest.mark.parametrize("argv, lines", [
    (["--d", "2", "--n", "16", "--marked", "40000"], 203),
    (["--d", "3", "--n", "9", "--marked", "100", "--f", "random:5"], 112),
    # 3^12, where OpenBLAS splits zger over its threads; compared to the bit
    (["--d", "3", "--n", "12", "--marked", "400000", "--f", "random:3"], None),
    # 8 runs in stacks of 6 and 2, each stack one zger per step
    (["--d", "3", "--n", "9", "--sweep", "17,1000,2500,7777,9999,12345,15000,19682",
      "--f", "random:5"], None),
])
def test_search_output_independent_of_blas_threads(argv, lines):
    # every block of the state, and every stack of a sweep's runs, takes each
    # step's update from the one rank-1 kernel, which hands zgeru alpha = 1
    # and the head factor pre-scaled, so each amplitude is formed the same
    # way on any number of threads and in any block; no multi-threaded sum
    # feeds the trajectory
    if lines is None:
        search, lines = RAW_BITS.format(argv=argv), 1
    else:
        search = f"from quditsearch.cli import main; main(['search', *{argv!r}])"
    one = run_python(search, OPENBLAS_NUM_THREADS="1")
    two = run_python(search, OPENBLAS_NUM_THREADS="2")
    assert one.count("\n") == lines
    assert one == two


# ---- fuzz: every argv ends in exit 0, 1 or 2 ------------------------------------


def _first_n_reaching(d, size):
    """The smallest n with d**n >= size."""
    n = 1
    while d**n < size:
        n += 1
    return n


def _text(strategy):
    return strategy.map(lambda v: repr(v) if isinstance(v, float) else str(v))


def _mostly(valid, invalid):
    """``valid`` three draws in four, else ``invalid``, as argv text."""
    return _text(st.one_of(valid, valid, valid, invalid))


# d**n below 2^16 (a state of at most 1 MiB, a gate of at most 16 x 16), past
# MAX_STATES (refused before anything is allocated), or not a register at all
SMALL_REGISTER = st.integers(2, 16).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, _first_n_reaching(d, 2**16) - 1)))
REGISTER = st.one_of(
    SMALL_REGISTER, SMALL_REGISTER, SMALL_REGISTER, SMALL_REGISTER,
    st.integers(2, 16).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(_first_n_reaching(d, MAX_STATES + 1), 31))),
    st.tuples(st.integers(2, 10**6), st.integers(32, 10**12)),
    st.tuples(st.integers(MAX_STATES + 1, 10**30), st.integers(1, 3)),
    st.tuples(st.integers(-3, 1), st.integers(-3, 3)),
)
F_KIND = st.one_of(
    st.sampled_from(["householder", "dft"]),
    st.integers(0, 10**20).map(lambda seed: f"random:{seed}"),
    st.sampled_from(["haar", "random:", "random:x", "random:-1", "dft:1"]),
)
MARKED = _mostly(st.integers(0, 20), st.integers(-3, 2**16 + 3))
JUNK = st.sampled_from(["", "-", "--", "--bogus", "--d", "--sweep", "search", "x", "1e3",
                        "nan", "0x10", "1,,2", "é"])


@st.composite
def search_flags(draw):
    d, n = draw(REGISTER)
    mode = draw(st.sampled_from(["deterministic", "pi", "custom"]))
    flags = [("--d", str(d)), ("--n", str(n)), ("--mode", mode), ("--f", draw(F_KIND))]
    if mode == "custom":
        flags += [
            ("--phi", draw(_mostly(st.floats(-10, 10),
                                   st.sampled_from([math.nan, -math.inf, 1e300])))),
            ("--steps", draw(_mostly(st.integers(0, 60),
                                     st.sampled_from([-1, 10**6 + 1, 10**20])))),
        ]
    which = draw(st.sampled_from(["default", "--marked", "--sweep"]))
    if which == "--marked":
        flags.append((which, draw(MARKED)))
    elif which == "--sweep":
        flags.append((which, ",".join(draw(st.lists(MARKED, max_size=3)))))
    return flags


# small pulse values integrate in well under a second; the out-of-range ones
# are refused before any integration
PULSE_FLAGS = st.tuples(
    st.tuples(st.just("--d"), _mostly(st.integers(2, 16), st.sampled_from([-1, 1, 17, 10**9]))),
    st.tuples(st.just("--deltaT"), _mostly(
        st.floats(-2, 2), st.sampled_from([100.5, -1e5, math.nan, math.inf]))),
    st.tuples(st.just("--area"), _mostly(
        st.one_of(st.floats(-15, 15), st.just(2 * math.pi)), st.sampled_from([-2000.0, math.nan]))),
    st.tuples(st.just("--shape"), st.sampled_from(["sech", "gaussian"])),
).map(list)
FLAGS = {
    "search": search_flags(),
    "schedule": st.tuples(st.tuples(st.just("--N"), _mostly(
        st.integers(2, 10**6), st.sampled_from([-3, 1, 2**60, 2**103, 10**400])))).map(list),
    "pulse-check": PULSE_FLAGS,
    "validate-f": st.tuples(st.tuples(st.just("--d"), _mostly(st.integers(2, 40),
                                                              st.integers(-2, 1))),
                            st.tuples(st.just("--f"), F_KIND)).map(list),
}


@st.composite
def cli_argv(draw, out_dir):
    """A well-formed argv of one subcommand, then maybe a few tokens deleted,
    replaced or inserted."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(FLAGS[command]) + [("--format", draw(st.sampled_from(["csv", "json"])))]
    if draw(st.booleans()):
        flags.append(("--out", str(draw(st.sampled_from(
            [out_dir / "out.txt", out_dir, out_dir / "missing" / "out.txt"])))))
    argv = [command, *(token for pair in flags for token in pair)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit != "insert" and at < len(argv):
            del argv[at]
        if edit != "delete":
            argv.insert(at, draw(JUNK))
    return argv


@pytest.fixture(scope="module")
def fuzz_out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=3000)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_out_dir, data):
    # --out names a file under this test's temporary directory, and so does a
    # junk token that an edit leaves after --out: it runs in that directory
    argv = data.draw(cli_argv(fuzz_out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_out_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
