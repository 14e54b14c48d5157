import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quditsearch
from quditsearch.cli import main


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


def test_search_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 3, "n": 3, "marked": 5, "format": "json"}))
    code, out, _ = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["schedule"]["N"] == 27
    # flag overrides the file
    code, out, _ = run_cli(capsys, "search", "--config", str(cfg), "--n", "2")
    assert code == 0
    assert json.loads(out)["schedule"]["N"] == 9


def test_search_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "search", "--config", str(missing))
    assert code == 2
    assert err.startswith("error:")


def test_search_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(capsys, "search", "--d", "2", "--n", "2",
                           "--out", str(target))
    assert code == 2
    assert err.startswith("error:")


def test_search_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"d": 3, "n": 3, "qudits": 7}))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("content", [
    pytest.param("5", id="number-file"),
    pytest.param("[1, 2]", id="list-file"),
    pytest.param('{"d": [3], "n": 2}', id="list-for-int"),
    pytest.param('{"d": 3, "n": 2, "f": 5}', id="int-for-string"),
    pytest.param('{"d": 3, "n": 2, "phi": [1], "mode": "custom", "steps": 3}',
                 id="list-for-float"),
    pytest.param('{"d": 3.7, "n": 2}', id="float-for-int"),
    pytest.param('{"d": true, "n": 2}', id="bool-for-int"),
    pytest.param('{"d": 3, "n": 2, "marked": null}', id="null"),
    pytest.param('{"d": 3, "n": 2, "format": "xml"}', id="not-a-choice"),
    pytest.param('{"d": 3, "n": 2, "sweep": [0, 1]}', id="list-for-string"),
])
def test_search_config_values_must_match_their_flags(tmp_path, capsys, content):
    # each value must be one its flag would accept; anything else is a usage error
    cfg = tmp_path / "bad.json"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_search_config_takes_an_integer_phase(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"d": 3, "n": 2, "mode": "custom", "phi": 3, "steps": 2}')
    code, out, _ = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "search", "--d", "3", "--n", "2", "--mode", "custom",
                          "--phi", "3", "--steps", "2")[1]


@pytest.mark.parametrize("config, flags", [
    pytest.param({"d": 3, "n": 2, "mode": "custom", "phi": 3, "steps": 2, "f": "dft",
                  "format": "json"},
                 ["--d", "3", "--n", "2", "--mode", "custom", "--phi", "3", "--steps", "2",
                  "--f", "dft", "--format", "json"], id="custom-dft-json"),
    pytest.param({"d": 2, "n": 3, "sweep": "0,5", "f": "random:4"},
                 ["--d", "2", "--n", "3", "--sweep", "0,5", "--f", "random:4"],
                 id="sweep-random"),
    pytest.param({"d": 2, "n": 3, "marked": 4, "mode": "pi"},
                 ["--d", "2", "--n", "3", "--marked", "4", "--mode", "pi"], id="marked-pi"),
])
def test_search_config_matches_the_same_flags(tmp_path, capsys, config, flags):
    # the config check and the flags come from one table: same values, same bytes
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "search", *flags)[1]


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


def test_search_sweep_conflicts_with_marked(capsys):
    code, _, err = run_cli(capsys, "search", "--d", "2", "--n", "3",
                           "--marked", "1", "--sweep", "0,1")
    assert code == 2
    assert "mutually exclusive" in err


@pytest.mark.parametrize("config, flags", [
    pytest.param({"marked": 1, "sweep": "0,1"}, [], id="config-config"),
    pytest.param({"marked": 1}, ["--sweep", "0,1"], id="config-flag"),
    pytest.param({"sweep": "0,1"}, ["--marked", "1"], id="flag-config"),
])
def test_search_sweep_conflicts_with_configured_marked(tmp_path, capsys, config, flags):
    # marked and sweep exclude each other wherever each is set
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 2, "n": 3, **config}))
    code, out, err = run_cli(capsys, "search", "--config", str(cfg), *flags)
    assert code == 2
    assert out == ""
    assert "mutually exclusive" in err


def test_search_missing_required(capsys):
    code, _, err = run_cli(capsys, "search")
    assert code == 2
    assert "--d" in err


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


def test_schedule_from_register_geometry(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--d", "3", "--n", "5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["N"] == 243


def test_schedule_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "schedule", "--N", "1")
    assert code == 2
    assert ">= 2" in err


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


def test_pulse_check_off_return_area_fails(capsys):
    code, _, err = run_cli(capsys, "pulse-check", "--d", "4", "--area", "12.566")
    assert code == 1
    assert "leakage" in err


@pytest.mark.parametrize("flag,value", [("--deltaT", "nan"), ("--area", "inf")])
def test_pulse_check_rejects_non_finite(flag, value):
    # a fresh interpreter with a timeout, so a hanging integration fails the test
    src = os.path.dirname(os.path.dirname(quditsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quditsearch", "pulse-check", "--d", "3", flag, value],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "finite" in proc.stderr


def test_search_refuses_a_huge_register_fast():
    # d**n is never formed for an n that cannot fit; a fresh interpreter with a
    # timeout, so a slow refusal fails the test
    src = os.path.dirname(os.path.dirname(quditsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quditsearch", "search", "--d", "3", "--n", "1000000000"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "dense-storage limit" in proc.stderr


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


# ---- parser-level behavior ---------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "search" in out


def run_python(code, **env):
    """Run code in a fresh interpreter on this package; its stdout."""
    src = os.path.dirname(os.path.dirname(quditsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_integrator_unloaded():
    # only the pulse commands integrate; the others must not pay its import
    probe = "import sys, quditsearch.cli; print('scipy.integrate' in sys.modules)"
    assert run_python(probe).strip() == "False"


def test_cli_import_leaves_blas_unloaded():
    # only a stepped state vector needs scipy's BLAS; schedule and validate-f do not
    probe = "import sys, quditsearch.cli; print('scipy.linalg' in sys.modules)"
    assert run_python(probe).strip() == "False"


@pytest.mark.parametrize("argv, lines", [
    (["--d", "2", "--n", "16", "--marked", "40000"], 203),
    (["--d", "3", "--n", "9", "--marked", "100", "--f", "random:5"], 112),
])
def test_search_output_independent_of_blas_threads(argv, lines):
    # every step is an elementwise zaxpy; no multi-threaded sum feeds the trajectory
    search = f"from quditsearch.cli import main; main(['search', *{argv!r}])"
    one = run_python(search, OPENBLAS_NUM_THREADS="1")
    two = run_python(search, OPENBLAS_NUM_THREADS="2")
    assert one.count("\n") == lines
    assert one == two
