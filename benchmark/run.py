"""Benchmark of quditsearch through its public functions.

    python3 benchmark/run.py --workload {search,sweep,pulse} --seed N \
        --seconds S --trace {0,1}

A run times ``setup_s`` over fresh interpreters, builds the workload's
inputs from the seed, does one warm-up operation (checked, self-tested,
not timed), then a fixed number of timed operations, round(S / nominal
operation time), and checks every output.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the program's functions are wrapped in spans (see tracing.py) and the
object carries the per-layer metrics instead.  Result and trace files go to
benchmark/out/.  README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc

import numpy as np
import scipy

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")
WORKLOADS = ("search", "sweep", "pulse")

# One interpreter start varies by a third within a run; the median of 9 is reported.
SETUP_PROBES = 9
TRACED_SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
SCIPY_IMPORT = ("import time; t = time.perf_counter(); import scipy.integrate; "
                "print(time.perf_counter() - t)")


def _shape_fields(state) -> dict:
    return {"N": state.shape.N, "n": state.shape.n}


def _solution_fields(sol) -> dict:
    return {"nfev": int(sol.nfev), "accepted": int(sol.t.size - 1)}


# (module, attribute, span name, span fields from the result, record CPU time).
# The attribute is the name the calling module looks the function up by.
TRACE_POINTS = [
    ("quditsearch", "make_f", "fgates.make_f", None, False),
    ("quditsearch", "deterministic_schedule", "scheduler.deterministic_schedule", None, False),
    ("quditsearch", "run_search", "engine.run_search", None, False),
    ("quditsearch", "propagate", "multipod.propagate", None, False),
    ("quditsearch", "extract_reflection", "multipod.extract_reflection", None, False),
    ("quditsearch", "verify_f_pulse", "multipod.verify_f_pulse", None, False),
    ("quditsearch.cli", "main", "cli.main", None, True),
    ("quditsearch.cli", "run_search", "engine.run_search", None, False),
    ("quditsearch.cli", "deterministic_schedule", "scheduler.deterministic_schedule", None, False),
    ("quditsearch.engine", "make_f", "fgates.make_f", None, False),
    ("quditsearch.engine", "superposition_register", "engine.superposition_register",
     _shape_fields, False),
    ("quditsearch.engine", "apply_local_gate", "reflections.apply_local_gate", None, False),
    ("quditsearch.engine", "grover_step", "reflections.grover_step", None, False),
    ("quditsearch.engine", "population", "register.population", None, False),
    ("quditsearch.reflections", "oracle", "reflections.oracle", None, False),
    ("quditsearch.reflections", "diffusion_direct", "reflections.diffusion_direct",
     _shape_fields, False),
    ("quditsearch.multipod", "propagate", "multipod.propagate", None, False),
    ("quditsearch.multipod", "extract_reflection", "multipod.extract_reflection", None, False),
    ("quditsearch.multipod", "solve_ivp", "multipod.solve_ivp", _solution_fields, False),
]


def _probe(argv: list[str]) -> tuple[float, str]:
    """Start a fresh interpreter; seconds until its first stdout line, and the line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe {argv[0]} exited {code}")
    return elapsed, line


def setup_probes(workload: str, seed: int, count: int, out_dir: str) -> list[tuple[float, dict]]:
    """(wall seconds to ready, the probe's own import and build times) per probe."""
    probes = []
    for _ in range(count):
        elapsed, line = _probe([PROBE, workload, str(seed), out_dir])
        probes.append((elapsed, json.loads(line)))
    return probes


def copy_gbps(n_amps: int, seconds: float = 0.5) -> float:
    """Median np.copyto rate for n complex128 (read + write = 32 n bytes)."""
    src = np.ones(n_amps, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rates) < 5:
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(32 * n_amps / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def peak_alloc_bytes(search) -> int:
    """tracemalloc high-water mark over one run_search call."""
    if search is None:
        return 0
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _openblas(lib, name: str, restype):
    """Call OpenBLAS's ``name`` under any of the symbol names wheels export."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_info() -> dict:
    """numpy's BLAS build, and each loaded OpenBLAS's core and thread count."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "loaded": {}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        config = _openblas(lib, "get_config", ctypes.c_char_p)
        info["loaded"][os.path.basename(path)] = {
            "config": config.decode() if config else None,
            "threads": _openblas(lib, "get_num_threads", ctypes.c_int),
        }
    return info


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Outputs:
    """Checks each operation's output against the independent references."""

    def __init__(self, workload: str, inputs) -> None:
        self.workload, self.inputs = workload, inputs
        schedule = getattr(inputs, "schedule", None)
        if schedule is not None:
            self.steps = schedule.steps
            self.model = checks.two_state_populations(schedule.N, schedule.phi, schedule.steps)
        self.output_bytes = 0

    def check(self, result) -> dict:
        """Raise CheckFailed on a wrong output; return what the self-test needs."""
        if self.workload == "search":
            pops = result.populations
            checks.check_search(pops, self.model, self.steps)
            return {"pops": pops, "model": self.model, "steps": self.steps}
        if self.workload == "sweep":
            with open(self.inputs.out_path) as fh:
                text = fh.read()
            self.output_bytes = len(text.encode())
            marks = self.inputs.marks
            trajectories = checks.parse_sweep_csv(text, marks, self.steps)
            checks.check_marks_agree(trajectories)
            for pops in trajectories.values():
                checks.check_search(pops, self.model, self.steps)
            return {"pops": trajectories[marks[0]], "model": self.model, "steps": self.steps,
                    "csv": text, "marks": marks, "trajectories": trajectories}
        genuine = {}
        for item, res in result:
            checks.check_pulse(item, res)
            if item.kind == "sech" and item.delta_t != 0.0:
                genuine["detuned"], genuine["detuned_dt"] = res, item.delta_t
            elif item.kind == "sech":
                genuine["resonant"] = res[0]
        return genuine


def warm_up(wl, inputs, outputs: Outputs) -> list[str]:
    """Untimed first operation: check it, capture the final states for the
    norm check, and self-test every check on perturbed copies of it."""
    states = []
    engine = wl.qs.engine
    build_register = engine.superposition_register

    def capture(*args, **kwargs):
        state = build_register(*args, **kwargs)
        states.append(state)  # run_search updates this vector in place
        return state

    engine.superposition_register = capture
    try:
        result = wl.run_op(inputs)
    finally:
        engine.superposition_register = build_register
    try:
        genuine = outputs.check(result)
        if states:
            norms = [s.norm() for s in states]
            checks.check_unit_norm(norms)
            genuine["norm"] = norms[0]
    except checks.CheckFailed as exc:
        return [f"warm-up operation: {exc}"]
    accepted = checks.self_test(outputs.workload, genuine)
    return [f"self-test: check {name} accepted a perturbed result" for name in accepted]


def layer_metrics(spans: list[dict], n_ops: int, extra: dict) -> dict:
    """Per-layer metrics from the spans; counts and times are per operation."""
    selfs = tracing.self_times(spans)
    timed = [s for s in spans if isinstance(s["op"], int)]
    build = [s for s in spans if s["op"] == "build"]

    def pick(name, pool=timed, via=None):
        return [s for s in pool if s["name"] == name and via in (None, s["via"])]

    def dur(pool):
        return sum(s["end"] - s["start"] for s in pool)

    def calls(name):
        return len(pick(name)) / n_ops

    def secs(name):
        return dur(pick(name)) / n_ops

    diffusions = pick("reflections.diffusion_direct")
    registers = pick("engine.superposition_register")
    cli_runs = pick("engine.run_search", via="quditsearch.cli")
    solves = pick("multipod.solve_ivp")
    workers = max((len({s["thread"] for s in cli_runs if s["op"] == i}) for i in range(n_ops)),
                  default=0)
    values = {
        "setup.import_quditsearch_s": (extra["import_quditsearch_s"], "s"),
        "setup.import_scipy_integrate_s": (extra["import_scipy_integrate_s"], "s"),
        "engine.run_search.calls": (calls("engine.run_search"), "count"),
        "engine.run_search.self_s": (
            sum(selfs[s["id"]] for s in pick("engine.run_search")) / n_ops, "s"),
        "engine.superposition_register.s": (secs("engine.superposition_register"), "s"),
        "engine.superposition_register.bytes_computed": (
            sum(32 * s["N"] * s["n"] for s in registers) / n_ops, "bytes"),
        "engine.peak_alloc_bytes": (extra["peak_alloc_bytes"], "bytes"),
        "reflections.oracle.calls": (calls("reflections.oracle"), "count"),
        "reflections.oracle.s": (secs("reflections.oracle"), "s"),
        "reflections.diffusion_direct.calls": (calls("reflections.diffusion_direct"), "count"),
        "reflections.diffusion_direct.s": (secs("reflections.diffusion_direct"), "s"),
        "reflections.diffusion_direct.gbps_computed": (
            sum(80 * s["N"] for s in diffusions) / dur(diffusions) / 1e9 if diffusions else 0.0,
            "GB/s"),
        "reflections.copy_gbps": (extra["copy_gbps"], "GB/s"),
        "reflections.apply_local_gate.calls": (calls("reflections.apply_local_gate"), "count"),
        "reflections.apply_local_gate.s": (secs("reflections.apply_local_gate"), "s"),
        "register.population.calls": (calls("register.population"), "count"),
        "register.population.s": (secs("register.population"), "s"),
        "fgates.make_f.s": (dur(pick("fgates.make_f", build)) + secs("fgates.make_f"), "s"),
        "scheduler.deterministic_schedule.s": (
            dur(pick("scheduler.deterministic_schedule", build))
            + secs("scheduler.deterministic_schedule"), "s"),
        "cli.main.s": (secs("cli.main"), "s"),
        "cli.run_search.sum_s": (dur(cli_runs) / n_ops, "s"),
        "cli.pool_workers": (workers, "count"),
        "cli.cpu_s": (sum(s["cpu_s"] for s in pick("cli.main")) / n_ops, "s"),
        "cli.output_bytes": (extra["output_bytes"], "bytes"),
        "multipod.propagate.calls": (calls("multipod.propagate"), "count"),
        "multipod.propagate.s": (secs("multipod.propagate"), "s"),
        "multipod.solve_ivp.calls": (calls("multipod.solve_ivp"), "count"),
        "multipod.nfev": (sum(s["nfev"] for s in solves) / n_ops, "count"),
        "multipod.accepted_steps": (sum(s["accepted"] for s in solves) / n_ops, "count"),
        "multipod.extract_reflection.s": (secs("multipod.extract_reflection"), "s"),
        "multipod.verify_f_pulse.s": (secs("multipod.verify_f_pulse"), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args) -> tuple[dict, int]:
    import workloads as wl

    os.makedirs(OUT_DIR, exist_ok=True)
    n_ops = max(1, round(args.seconds / wl.NOMINAL_OP_S[args.workload]))
    errors: list[str] = []
    samples: list[float] = []
    failed = 0
    tracer = tracing.Tracer() if args.trace else None
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "operations": n_ops, "machine": machine_info()}

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        probes = setup_probes(args.workload, args.seed,
                              TRACED_SETUP_PROBES if tracer else SETUP_PROBES, tmp)
        record["setup_probes"] = [{"wall_s": wall, **inner} for wall, inner in probes]
        if tracer:
            scipy_s = [float(_probe(["-c", SCIPY_IMPORT])[1])
                       for _ in range(TRACED_SETUP_PROBES)]
            for module, attr, name, attrs, cpu in TRACE_POINTS:
                tracer.wrap(importlib.import_module(module), attr, name, attrs, cpu)
        try:
            if tracer:
                tracer.op = "build"
            inputs = wl.build(args.workload, args.seed, tmp)
            outputs = Outputs(args.workload, inputs)
            if tracer:
                tracer.op = "warmup"
            errors += warm_up(wl, inputs, outputs)
            for i in range(n_ops):
                if tracer:
                    tracer.op = i
                start = time.perf_counter()
                try:
                    if tracer:
                        result = tracer.span("op", wl.run_op, inputs)
                    else:
                        result = wl.run_op(inputs)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                samples.append(time.perf_counter() - start)
                try:
                    outputs.check(result)
                except checks.CheckFailed as exc:
                    errors.append(f"operation {i}: {exc}")
        finally:
            if tracer:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not samples:
            raise RuntimeError(f"all {n_ops} operations failed")

        record["op_s"] = samples
        record["errors"] = errors
        if tracer:
            t0 = min(s["start"] for s in tracer.spans)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"t0": t0, "spans": tracer.spans}, fh)
            metrics = layer_metrics(tracer.spans, n_ops, {
                "import_quditsearch_s": statistics.median(p["import_s"] for _, p in probes),
                "import_scipy_integrate_s": statistics.median(scipy_s),
                "peak_alloc_bytes": peak_alloc_bytes(inputs.single_search),
                "copy_gbps": copy_gbps(inputs.state_size),
                "output_bytes": outputs.output_bytes,
            })
        else:
            metrics = {
                "setup_s": {"value": statistics.median(w for w, _ in probes), "unit": "s"},
                "op_s.p50": {"value": statistics.median(samples), "unit": "s"},
                "work_per_s": {"value": inputs.work * len(samples) / sum(samples),
                               "unit": "work/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
    record["metrics"] = metrics
    result = {"correct": not errors, "attempted": n_ops, "failed": failed, "metrics": metrics}
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    machine = record["machine"]
    threads = {lib: blas["threads"] for lib, blas in machine["blas"]["loaded"].items()}
    print(f"# nproc={machine['nproc']} numpy={machine['numpy']} scipy={machine['scipy']} "
          f"OpenBLAS threads={threads}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(samples)} timed "
          f"operations, op_s = {' '.join(f'{s:.4f}' for s in samples)}")
    return result, 0 if not errors else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "quditsearch")):
        print(f"error: no quditsearch sources at {SRC}", file=sys.stderr)
        return 2
    result, code = run(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
