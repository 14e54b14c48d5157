"""Command-line front end.

Four subcommands: ``search`` runs a full state-vector search and writes
the trajectory (CSV or JSON), ``schedule`` prints the phase-matching
parameters for a database size, ``pulse-check`` integrates a multipod
pulse and reports the extracted reflection, and ``validate-f`` checks
the equal-superposition gate contract.  Angles are radians everywhere;
floats are printed with 12 significant digits.

Exit codes: 0 success, 1 runtime failure (e.g. pulse left population on
the ancilla), 2 usage, validation or file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .engine import ExperimentConfig, Trajectory, run_search
from .fgates import coupling_design, make_f, validate_f
from .multipod import (
    PULSE_SHAPES, PulseJob, analytic_sech_phase, extract_reflection, propagate,
)
from .register import BasisIndex, QuditShape
from .scheduler import (
    SearchSchedule,
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
)

_SEARCH_DEFAULTS = {
    "marked": 0,
    "mode": "deterministic",
    "f": "householder",
    "format": "csv",
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_fields(fields: dict, fmt: str, out: str | None) -> None:
    """Write flat fields as JSON or as key,value CSV."""
    if fmt == "json":
        _emit(json.dumps(fields, indent=2) + "\n", out)
        return

    def cell(v) -> str:
        if isinstance(v, float):
            return _fmt(v)
        return "" if v is None else str(v)

    body = "".join(f"{k},{cell(v)}\n" for k, v in fields.items())
    _emit("key,value\n" + body, out)


def _trajectory_dict(schedule: SearchSchedule, traj: Trajectory) -> dict:
    return {
        "schedule": dataclasses.asdict(schedule),
        "trajectory": [float(p) for p in traj.populations],
        "peak_step": traj.peak_step,
        "peak_population": float(traj.peak_population),
    }


def _trajectory_csv(traj: Trajectory, prefix: str = "") -> str:
    lines = [f"{prefix}{k},{_fmt(p)}" for k, p in enumerate(traj.populations)]
    return "\n".join(lines) + "\n"


def _merge_config(args: argparse.Namespace, keys: dict) -> dict:
    """Overlay: hard defaults < config file < explicit flags."""
    merged = dict(keys)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _resolve_schedule(N: int, mode: str, phi, steps) -> SearchSchedule:
    if mode == "custom":
        if phi is None or steps is None:
            raise ValueError("--mode custom requires both --phi and --steps")
        return custom_schedule(N, float(phi), int(steps))
    if mode not in ("deterministic", "pi"):
        raise ValueError(f"unknown mode {mode!r}")
    if phi is not None or steps is not None:
        raise ValueError("--phi/--steps are only valid with --mode custom")
    return deterministic_schedule(N) if mode == "deterministic" else canonical_schedule(N)


def _cmd_search(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        {"d": None, "n": None, "phi": None, "steps": None, "sweep": None,
         **_SEARCH_DEFAULTS},
    )
    if opts["d"] is None or opts["n"] is None:
        raise ValueError("search requires --d and --n (flags or config file)")
    shape = QuditShape(int(opts["d"]), int(opts["n"]))
    schedule = _resolve_schedule(shape.N, opts["mode"], opts["phi"], opts["steps"])

    def build(marked_flat: int) -> ExperimentConfig:
        return ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, int(marked_flat)),
            schedule=schedule,
            f_kind=opts["f"],
        )

    if opts["sweep"] is not None:
        if args.marked is not None:
            raise ValueError("--sweep and --marked are mutually exclusive")
        marks = [int(tok) for tok in str(opts["sweep"]).split(",") if tok != ""]
        if not marks:
            raise ValueError("--sweep needs a comma-separated list of marked indices")
        trajectories = [run_search(build(m)) for m in marks]
        if opts["format"] == "json":
            payload = [
                {"marked": m, **_trajectory_dict(schedule, t)}
                for m, t in zip(marks, trajectories)
            ]
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            body = "".join(
                _trajectory_csv(t, prefix=f"{m},") for m, t in zip(marks, trajectories)
            )
            _emit("marked,step,population\n" + body, args.out)
        return 0

    traj = run_search(build(opts["marked"]))
    if opts["format"] == "json":
        _emit(json.dumps(_trajectory_dict(schedule, traj), indent=2) + "\n", args.out)
    else:
        _emit("step,population\n" + _trajectory_csv(traj), args.out)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.N is not None:
        if args.d is not None or args.n is not None:
            raise ValueError("give either --N or --d/--n, not both")
        N = args.N
    elif args.d is not None and args.n is not None:
        N = QuditShape(args.d, args.n).N
    else:
        raise ValueError("schedule requires --N or both --d and --n")
    det = deterministic_schedule(N)
    canonical = canonical_schedule(N)
    fields = {
        "N": N,
        "beta": det.beta,
        "j": det.j,
        "phi": det.phi,
        "steps": det.steps,
        "canonical_steps": canonical.steps,
    }
    _emit_fields(fields, args.format, args.out)
    return 0


def _cmd_pulse_check(args: argparse.Namespace) -> int:
    job = PulseJob(
        couplings=coupling_design(args.d),
        detuning=args.deltaT,
        rms_area=args.area,
        shape=args.shape,
    )
    fit = extract_reflection(propagate(job), job.couplings)
    fields = {
        "d": args.d,
        "shape": args.shape,
        "deltaT": args.deltaT,
        "area": args.area,
        "extracted_phi": fit.phase,
        "analytic_phi": analytic_sech_phase(args.deltaT) if args.shape == "sech" else None,
        "residual": fit.residual,
        "leakage": fit.leakage,
    }
    _emit_fields(fields, args.format, args.out)
    return 0 if fit.residual < 1e-4 else 1


def _cmd_validate_f(args: argparse.Namespace) -> int:
    report = validate_f(make_f(args.d, args.f))
    fields = {
        "d": args.d,
        "f": args.f,
        "unitarity_defect": report.unitarity_defect,
        "column_deviation": report.column_deviation,
        "passed": report.passed,
    }
    _emit_fields(fields, args.format, args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditsearch",
        description="Grover search on d-level registers: simulation, "
        "phase-matching schedules, and pulse-level gate checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a search and write the trajectory")
    p.add_argument("--d", type=int, help="levels per qudit (>= 2)")
    p.add_argument("--n", type=int, help="number of qudits (>= 1)")
    p.add_argument("--marked", type=int, help="flat index of the marked state")
    p.add_argument("--mode", choices=["deterministic", "pi", "custom"])
    p.add_argument("--phi", type=float, help="phase in radians (custom mode only)")
    p.add_argument("--steps", type=int, help="step count (custom mode only)")
    p.add_argument("--f", help="householder | dft | random:SEED")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON file with the same keys; flags override")
    p.add_argument("--sweep", help="comma-separated marked indices, run in order")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("schedule", help="print phase-matching parameters")
    p.add_argument("--N", type=int, help="database size (>= 2)")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("pulse-check", help="integrate a multipod pulse and fit it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--deltaT", type=float, default=0.0, help="detuning-width product")
    p.add_argument("--area", type=float, default=2.0 * math.pi, help="RMS pulse area")
    p.add_argument("--shape", choices=PULSE_SHAPES, default="sech")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pulse_check)

    p = sub.add_parser("validate-f", help="check the equal-superposition gate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", default="householder", help="householder | dft | random:SEED")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate_f)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
