"""Correctness checks on the program's outputs, computed apart from it.

The reference values come from the physics, written out here: the 2x2
two-state iteration of a phase-matched search, the sech phase law
pi - 2 arctan(Delta T), and the Householder gate 1 - 2 xi xi^dagger from the
closed-form coupling amplitudes.  Nothing is compared with stored output.
Each check raises ``CheckFailed``; ``self_test`` feeds every check a
perturbed copy of a genuine result and fails unless the check rejects it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SEARCH_TOL = 1e-9
PHASE_TOL = 1e-4
LEAKAGE_TOL = 1e-4
UNITARITY_TOL = 1e-8
GATE_TOL = 1e-5


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


def two_state_populations(N: int, phi: float, steps: int) -> np.ndarray:
    """Marked population after 0..steps phase-matched Grover steps.

    The state stays in span{|m>, |r>}, |r> the normalised rest of the
    superposition |s> = a|m> + b|r> with a = 1/sqrt(N).  One step is the
    oracle phase e^{i phi} on |m>, then v += (e^{i phi} - 1) <s|v> |s>.
    """
    a = 1.0 / math.sqrt(N)
    b = math.sqrt(1.0 - 1.0 / N)
    e = cmath.exp(1j * phi)
    m, r = complex(a), complex(b)
    pops = [abs(m) ** 2]
    for _ in range(steps):
        m *= e
        c = (e - 1.0) * (a * m + b * r)
        m += c * a
        r += c * b
        pops.append(abs(m) ** 2)
    return np.array(pops)


def check_two_state(pops: np.ndarray, model: np.ndarray) -> None:
    if pops.shape != model.shape:
        raise CheckFailed(f"trajectory has {pops.size} entries, expected {model.size}")
    dev = float(np.max(np.abs(pops - model)))
    if dev > SEARCH_TOL:
        raise CheckFailed(f"trajectory deviates from the two-state model by {dev:.3e}")


def check_lands(pops: np.ndarray, steps: int) -> None:
    if not pops[steps] >= 1.0 - SEARCH_TOL:
        raise CheckFailed(f"population at the scheduled step {steps} is {pops[steps]!r}")


def check_unit_norm(norms: list[float]) -> None:
    dev = max(abs(x - 1.0) for x in norms)
    if not dev <= SEARCH_TOL:
        raise CheckFailed(f"final state norm is off 1 by {dev:.3e}")


def check_search(pops: np.ndarray, model: np.ndarray, steps: int) -> None:
    check_two_state(pops, model)
    check_lands(pops, steps)


def parse_sweep_csv(text: str, marks: list[int], steps: int) -> dict[int, np.ndarray]:
    """Read marked,step,population rows; exactly K x (steps + 1), in order."""
    lines = text.splitlines()
    if not lines or lines[0] != "marked,step,population":
        raise CheckFailed("sweep CSV lacks its marked,step,population header")
    rows = lines[1:]
    want = len(marks) * (steps + 1)
    if len(rows) != want:
        raise CheckFailed(f"sweep CSV has {len(rows)} rows, expected {want}")
    trajectories = {}
    for i, m in enumerate(marks):
        pops = []
        for k in range(steps + 1):
            fields = rows[i * (steps + 1) + k].split(",")
            if len(fields) != 3 or int(fields[0]) != m or int(fields[1]) != k:
                raise CheckFailed(f"sweep CSV row for marked={m} step={k} is {fields}")
            pops.append(float(fields[2]))
        trajectories[m] = np.array(pops)
    return trajectories


def check_marks_agree(trajectories: dict[int, np.ndarray]) -> None:
    """The search is invariant under the marked index and the choice of F."""
    ref = next(iter(trajectories.values()))
    dev = max(float(np.max(np.abs(t - ref))) for t in trajectories.values())
    if dev > SEARCH_TOL:
        raise CheckFailed(f"sweep trajectories disagree by {dev:.3e}")


def householder_gate(d: int) -> np.ndarray:
    """1 - 2 xi xi^T, xi_0 = sqrt((1 - 1/sqrt d)/2), xi_k = sqrt(1/(2(d - sqrt d)))."""
    xi = np.full(d, math.sqrt(1.0 / (2.0 * (d - math.sqrt(d)))))
    xi[0] = math.sqrt(0.5 * (1.0 - 1.0 / math.sqrt(d)))
    return np.eye(d) - 2.0 * np.outer(xi, xi)


def circle_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def check_phase(phase: float, delta_t: float) -> None:
    dist = circle_distance(phase, math.pi - 2.0 * math.atan(delta_t))
    if not dist <= PHASE_TOL:
        raise CheckFailed(f"reflection phase at Delta T={delta_t} is off by {dist:.3e}")


def check_leakage(leakage: float) -> None:
    if not leakage < LEAKAGE_TOL:
        raise CheckFailed(f"ancilla leakage {leakage:.3e}")


def ancilla_leakage(u: np.ndarray) -> float:
    """2-norm of the ancilla row over the qudit columns (ancilla is last)."""
    return float(np.linalg.norm(u[-1, :-1]))


def check_unitary(u: np.ndarray) -> None:
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not defect < UNITARITY_TOL:
        raise CheckFailed(f"unitarity defect {defect:.3e}")


def check_householder(block: np.ndarray, d: int) -> None:
    """block = e^{i gamma} (1 - 2 xi xi^T) for one global phase gamma."""
    target = householder_gate(d)
    gamma = cmath.phase(np.trace(target.conj().T @ block))
    dev = float(np.max(np.abs(block * cmath.exp(-1j * gamma) - target)))
    if not dev <= GATE_TOL:
        raise CheckFailed(f"d={d} gate deviates from 1 - 2 xi xi^T by {dev:.3e}")


def check_pulse(item, result) -> None:
    """One grid point: a (propagator, fit) pair, or a verify_f_pulse report."""
    if item.kind == "verify":
        if not result.passed:
            raise CheckFailed(f"verify_f_pulse({item.d}) did not pass")
        check_leakage(result.fit.leakage)
        check_unitary(result.gate.matrix)
        check_householder(result.gate.matrix, item.d)
        return
    prop, fit = result
    check_phase(fit.phase, item.delta_t)
    check_leakage(ancilla_leakage(prop.matrix))
    check_unitary(prop.matrix)
    if item.delta_t == 0.0:
        check_householder(prop.qudit_block, item.d)


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test(workload: str, genuine: dict) -> list[str]:
    """Names of the checks that accepted a perturbed result (empty: all good)."""
    cases = []
    if workload in ("search", "sweep"):
        pops, model, steps = genuine["pops"], genuine["model"], genuine["steps"]
        bent = pops.copy()
        bent[steps // 2] += 1e-7
        cases.append(("two_state", check_two_state, bent, model))
        short = pops.copy()
        short[steps] = 1.0 - 1e-8
        cases.append(("lands", check_lands, short, steps))
        cases.append(("unit_norm", check_unit_norm, [genuine["norm"] * (1.0 + 1e-8)]))
    if workload == "sweep":
        text, marks = genuine["csv"], genuine["marks"]
        cases.append(("csv_rows", parse_sweep_csv, text.rsplit("\n", 2)[0] + "\n", marks, steps))
        trajectories = {m: t.copy() for m, t in genuine["trajectories"].items()}
        trajectories[marks[-1]][steps // 2] += 1e-7
        cases.append(("marks_agree", check_marks_agree, trajectories))
    if workload == "pulse":
        prop, fit = genuine["detuned"]
        cases.append(("phase", check_phase, fit.phase + 2e-4, genuine["detuned_dt"]))
        leaky = prop.matrix.copy()
        leaky[-1, 0] += 2e-4
        cases.append(("leakage", lambda u: check_leakage(ancilla_leakage(u)), leaky))
        stretched = prop.matrix.copy()
        stretched[0, 0] *= 1.0 + 1e-7
        cases.append(("unitary", check_unitary, stretched))
        block = genuine["resonant"].qudit_block.copy()
        block[0, 1] += 1e-4
        cases.append(("householder", check_householder, block, block.shape[0]))
    return [name for name, check, *args in cases if not _rejects(check, *args)]
