"""Command-line front end.

Four subcommands: ``search`` runs a full state-vector search and writes
the trajectory (CSV or JSON), ``schedule`` prints the phase-matching
parameters for a database size, ``pulse-check`` integrates a multipod
pulse and reports the extracted reflection, and ``validate-f`` checks
the equal-superposition gate contract.  Every value comes from a flag;
the only file the CLI touches is the one ``--out`` names.  Angles are
radians everywhere; floats are printed with 12 significant digits.

Exit codes: 0 success, 1 runtime failure (e.g. pulse left population on
the ancilla, an allocation failed, or no zgeru for the step), 2 usage,
validation or file error (e.g. a gate dimension above
fgates.MAX_GATE_D = 4096).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from .engine import ExperimentConfig, Trajectory, run_search, run_searches
from .fgates import coupling_design, make_f, validate_f
from .multipod import (
    MAX_PULSE_D, PULSE_SHAPES, PulseJob, analytic_sech_phase, extract_reflection,
    propagate,
)
from .register import BasisIndex, QuditShape
from .scheduler import (
    SearchSchedule,
    canonical_schedule,
    custom_schedule,
    deterministic_schedule,
)


def _cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return "" if v is None else str(v)


def _emit(fmt: str, out: str | None, doc, header: str, rows) -> None:
    """Write ``doc`` as JSON, or as CSV: ``header``, then a key,value line per row.

    A key that spans several columns (a sweep's ``marked,step``) comes pre-joined.
    """
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = header + "\n" + "".join([f"{key},{_cell(value)}\n" for key, value in rows])
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trajectory_dict(schedule: dict, traj: Trajectory) -> dict:
    return {
        "schedule": schedule,
        "trajectory": traj.populations.tolist(),
        "peak_step": traj.peak_step,
        "peak_population": float(traj.peak_population),
    }


def _resolve_schedule(N: int, mode: str, phi, steps) -> SearchSchedule:
    if mode == "custom":
        if phi is None or steps is None:
            raise ValueError("--mode custom requires both --phi and --steps")
        return custom_schedule(N, phi, steps)
    if phi is not None or steps is not None:
        raise ValueError("--phi/--steps are only valid with --mode custom")
    return deterministic_schedule(N) if mode == "deterministic" else canonical_schedule(N)


def _cmd_search(args: argparse.Namespace) -> int:
    shape = QuditShape(args.d, args.n)
    schedule = _resolve_schedule(shape.N, args.mode, args.phi, args.steps)

    def build(marked_flat: int) -> ExperimentConfig:
        return ExperimentConfig(
            shape=shape,
            marked=BasisIndex.from_flat(shape, marked_flat),
            schedule=schedule,
            f_kind=args.f,
        )

    as_json = args.format == "json"  # the JSON document is built for JSON output only
    if args.sweep is None:
        traj = run_search(build(0 if args.marked is None else args.marked))
        doc = _trajectory_dict(dataclasses.asdict(schedule), traj) if as_json else None
        rows = () if as_json else enumerate(traj.populations.tolist())
        _emit(args.format, args.out, doc, "step,population", rows)
        return 0
    marks = [int(tok) for tok in args.sweep.split(",") if tok != ""]
    if not marks:
        raise ValueError("--sweep needs a comma-separated list of marked indices")
    cfgs = [build(m) for m in marks]  # every mark is checked before any search runs
    runs = list(zip(marks, run_searches(cfgs)))
    if as_json:
        schedule_doc = dataclasses.asdict(schedule)  # shared by the runs
        doc, rows = [{"marked": m, **_trajectory_dict(schedule_doc, t)} for m, t in runs], ()
    else:
        doc = None
        rows = ((f"{m},{k}", p) for m, t in runs for k, p in enumerate(t.populations.tolist()))
    _emit(args.format, args.out, doc, "marked,step,population", rows)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    fields = dataclasses.asdict(deterministic_schedule(args.N))  # N, beta, j, phi, steps
    del fields["mode"]
    fields["canonical_steps"] = canonical_schedule(args.N).steps
    _emit(args.format, args.out, fields, "key,value", fields.items())
    return 0


def _cmd_pulse_check(args: argparse.Namespace) -> int:
    if args.d > MAX_PULSE_D:  # refused before coupling_design allocates d entries
        raise ValueError(f"d {args.d} exceeds the limit {MAX_PULSE_D}")
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
        "analytic_phi": (analytic_sech_phase(args.deltaT, args.area)
                         if args.shape == "sech" else None),
        "residual": fit.residual,
        "leakage": fit.leakage,
    }
    _emit(args.format, args.out, fields, "key,value", fields.items())
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
    _emit(args.format, args.out, fields, "key,value", fields.items())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quditsearch",
        description="Grover search on d-level registers: simulation, "
        "phase-matching schedules, and pulse-level gate checks.",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"], default="csv")
    output.add_argument("--out", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[output],
                       help="run a search and write the trajectory")
    p.add_argument("--d", type=int, required=True, help="levels per qudit (>= 2)")
    p.add_argument("--n", type=int, required=True, help="number of qudits (>= 1)")
    p.add_argument("--mode", choices=["deterministic", "pi", "custom"],
                   default="deterministic")
    p.add_argument("--phi", type=float, help="phase in radians (custom mode only)")
    p.add_argument("--steps", type=int, help="step count (custom mode only)")
    p.add_argument("--f", default="householder", help="householder | dft | random:SEED")
    which = p.add_mutually_exclusive_group()
    # default None: argparse would take a --marked 0 equal to a default 0 as unset
    which.add_argument("--marked", type=int, help="flat index of the marked state (default 0)")
    which.add_argument("--sweep", help="comma-separated marked indices, run together "
                       "as one stacked state, written in input order")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("schedule", parents=[output], help="print phase-matching parameters")
    p.add_argument("--N", type=int, required=True, help="database size (>= 2)")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("pulse-check", parents=[output],
                       help="integrate a multipod pulse and fit it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--deltaT", type=float, default=0.0, help="detuning-width product")
    p.add_argument("--area", type=float, default=2.0 * math.pi, help="RMS pulse area")
    p.add_argument("--shape", choices=PULSE_SHAPES, default="sech")
    p.set_defaults(func=_cmd_pulse_check)

    p = sub.add_parser("validate-f", parents=[output],
                       help="check the equal-superposition gate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", default="householder", help="householder | dft | random:SEED")
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
    except (RuntimeError, MemoryError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
