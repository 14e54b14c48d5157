"""Inputs and operations of the three benchmark workloads.

Every input is made from the workload seed; the program receives only the
generated inputs, through its public functions.  One operation is:

* ``search``: ``run_search`` to the end of the deterministic schedule at
  d=3, n=12 (N=531441) with the Householder F and a seeded marked index;
* ``sweep``: ``cli.main(["search", "--sweep", ...])`` over K=8 seeded marked
  indices at d=3, n=9 (N=19683) with ``--f random:SEED``, CSV to a file;
* ``pulse``: one pass over a fixed grid of multipod pulses, in a seeded
  order: ``propagate`` + ``extract_reflection`` for sech pulses at
  Delta T in {0, 0.5, 1, 2} and a Gaussian pulse at Delta T = 0, and
  ``verify_f_pulse``, for d in {2, 3, 5, 8}.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import quditsearch as qs  # noqa: E402
from quditsearch import cli  # noqa: E402

# Seconds one operation takes on the reference machine (README).  A run does
# round(--seconds / NOMINAL_OP_S) timed operations, so the operation count
# depends on --seconds alone and never on a time measured during the run.
NOMINAL_OP_S = {"search": 1.4, "sweep": 1.7, "pulse": 3.4}

SEARCH_D, SEARCH_N = 3, 12
# n=9 is the smallest qutrit register whose overlap np.vdot runs on several
# OpenBLAS threads (OpenBLAS keeps zdot single-threaded up to 10000 entries),
# so it is the cheapest sweep that still shows the pool oversubscription.
SWEEP_D, SWEEP_N, SWEEP_K = 3, 9, 8
PULSE_DIMS = (2, 3, 5, 8)
PULSE_DETUNINGS = (0.0, 0.5, 1.0, 2.0)
PULSE_AREA = 2.0 * math.pi


@dataclass
class SearchInputs:
    cfg: qs.ExperimentConfig
    f: qs.FGate

    @property
    def schedule(self) -> qs.SearchSchedule:
        return self.cfg.schedule

    @property
    def work(self) -> float:
        """10^6 amplitude updates (N x Grover steps) per operation."""
        return self.cfg.shape.N * self.schedule.steps / 1e6

    @property
    def state_size(self) -> int:
        return self.cfg.shape.N

    def single_search(self) -> qs.Trajectory:
        return qs.run_search(self.cfg, self.f)


@dataclass
class SweepInputs:
    argv: list[str]
    marks: list[int]
    schedule: qs.SearchSchedule
    out_path: str
    probe_cfg: qs.ExperimentConfig  # one of the sweep's searches, run alone

    @property
    def work(self) -> float:
        return len(self.marks) * self.schedule.N * self.schedule.steps / 1e6

    @property
    def state_size(self) -> int:
        return self.schedule.N

    def single_search(self) -> qs.Trajectory:
        return qs.run_search(self.probe_cfg)


@dataclass(frozen=True)
class PulseItem:
    kind: str  # sech | gaussian | verify
    d: int
    delta_t: float
    job: qs.PulseJob | None  # None for verify: verify_f_pulse builds its own


@dataclass
class PulseInputs:
    items: list[PulseItem]
    single_search = None  # no state vector in this workload
    state_size = 3**SEARCH_N  # the copy-bandwidth reference is taken at the search size

    @property
    def work(self) -> float:
        """Propagators per operation (verify_f_pulse computes one)."""
        return float(len(self.items))


def build(workload: str, seed: int, out_dir: str):
    """Make a workload's inputs from its seed."""
    rng = np.random.default_rng(seed)
    if workload == "search":
        shape = qs.QuditShape(SEARCH_D, SEARCH_N)
        marked = qs.BasisIndex.from_flat(shape, int(rng.integers(shape.N)))
        cfg = qs.ExperimentConfig(shape, marked, qs.deterministic_schedule(shape.N))
        return SearchInputs(cfg, qs.make_f(SEARCH_D, "householder"))
    if workload == "sweep":
        shape = qs.QuditShape(SWEEP_D, SWEEP_N)
        marks = [int(m) for m in rng.choice(shape.N, SWEEP_K, replace=False)]
        f_kind = f"random:{int(rng.integers(2**31))}"
        out_path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
        argv = ["search", "--d", str(SWEEP_D), "--n", str(SWEEP_N),
                "--sweep", ",".join(map(str, marks)), "--f", f_kind,
                "--out", out_path]
        schedule = qs.deterministic_schedule(shape.N)
        probe = qs.ExperimentConfig(
            shape, qs.BasisIndex.from_flat(shape, marks[0]), schedule, f_kind=f_kind
        )
        return SweepInputs(argv, marks, schedule, out_path, probe)
    if workload == "pulse":
        items = []
        for d in PULSE_DIMS:
            couplings = qs.coupling_design(d)
            for dt in PULSE_DETUNINGS:
                items.append(PulseItem("sech", d, dt, qs.PulseJob(couplings, dt, PULSE_AREA)))
            items.append(PulseItem(
                "gaussian", d, 0.0,
                qs.PulseJob(couplings, 0.0, PULSE_AREA, shape="gaussian"),
            ))
            items.append(PulseItem("verify", d, 0.0, None))
        return PulseInputs([items[i] for i in rng.permutation(len(items))])
    raise ValueError(f"unknown workload {workload!r}")


def run_op(inputs):
    """One operation; returns what the program produced, for the checks."""
    if isinstance(inputs, SearchInputs):
        return qs.run_search(inputs.cfg, inputs.f)
    if isinstance(inputs, SweepInputs):
        code = cli.main(inputs.argv)
        if code != 0:
            raise RuntimeError(f"quditsearch search --sweep exited {code}")
        return None  # the output is the CSV file, read after the timing
    results = []
    for item in inputs.items:
        if item.kind == "verify":
            results.append((item, qs.verify_f_pulse(item.d)))
        else:
            prop = qs.propagate(item.job)
            results.append((item, (prop, qs.extract_reflection(prop, item.job.couplings))))
    return results
