"""Independent output checks, and the self-test that feeds them corrupted results.

Every check reads the workload's inputs from the generated JSON files itself
and recomputes what it needs apart from the program: distances from the
coordinates with numpy, couplings with scipy's ``maximum_flow`` on
integer-scaled masses, W1 with scipy's ``linprog`` (HiGHS), masses and sums in
``Fraction``s, and verdicts from how the inputs were built.  Nothing is
compared with a stored copy of an earlier output.

This module imports numpy and scipy, so the workload process imports it only
after it has read its peak RSS.

Each ``check_*`` returns a list of problems; an empty list means the output
passed.  Each ``corrupt_*`` yields (description, corrupted output) pairs that
the matching check must reject.
"""
from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import maximum_flow

REL = 1e-12  # two distances closer than this are one candidate threshold
INT32_MAX = 2**31 - 1


# ---------------------------------------------------------------- primitives

def weights_of(entries) -> dict:
    out: dict = {}
    for e in entries:
        out[e["atom"]] = out.get(e["atom"], Fraction(0)) + Fraction(e["num"], e["den"])
    return {k: v for k, v in out.items() if v}


def euclidean(coords: dict, a_labels, b_labels) -> np.ndarray:
    a = np.array([coords[x] for x in a_labels], dtype=float)
    b = np.array([coords[y] for y in b_labels], dtype=float)
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def scaled(*masses) -> tuple[int, list]:
    """Common denominator L and every mass list multiplied by it, as ints."""
    den = 1
    for ms in masses:
        for m in ms:
            den = lcm(den, m.denominator)
    return den, [[int(m * den) for m in ms] for ms in masses]


def max_flow_value(supply, demand, allowed: np.ndarray) -> int:
    """Max flow source -> left (supply) -> right where allowed -> sink (demand)."""
    n_left, n_right = allowed.shape
    big = sum(supply)
    if big > INT32_MAX:
        raise OverflowError("capacities exceed 32 bits")
    src, sink = 0, n_left + n_right + 1
    li, rj = np.nonzero(allowed)
    rows = np.concatenate([np.zeros(n_left, int), 1 + li, 1 + n_left + np.arange(n_right)])
    cols = np.concatenate([1 + np.arange(n_left), 1 + n_left + rj, np.full(n_right, sink)])
    caps = np.concatenate([supply, np.full(len(li), big), demand]).astype(np.int32)
    graph = csr_matrix(coo_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1)))
    return int(maximum_flow(graph, src, sink).flow_value)


def candidates(dmat: np.ndarray) -> np.ndarray:
    """Sorted candidate thresholds: 0 and the distinct distances, with values
    that agree to REL merged into one (kept at the largest member)."""
    values = np.unique(np.concatenate([[0.0], dmat.ravel()]))
    keep = [values[-1]]
    for v in values[-2::-1]:
        if keep[-1] - v > REL * max(keep[-1], 1.0):
            keep.append(v)
    return np.array(keep[::-1])


def certify_bottleneck(mu: dict, nu: dict, dmat: np.ndarray, value: float) -> list:
    """A coupling exists within ``value`` and none within the next smaller
    candidate; ``dmat`` rows follow ``mu``'s keys, columns ``nu``'s."""
    cands = candidates(dmat)
    near = np.nonzero(np.abs(cands - value) <= 5e-12 * max(abs(value), 1.0))[0]
    if len(near) != 1:
        return [f"value {value!r} is not a support-to-support distance"]
    k = near[0]
    _, (supply, demand) = scaled(list(mu.values()), list(nu.values()))
    total = sum(supply)
    slack = REL * max(cands[k], 1.0)
    if max_flow_value(supply, demand, dmat <= cands[k] + slack) != total:
        return [f"no coupling within the reported value {value!r}"]
    if k > 0 and max_flow_value(supply, demand, dmat <= cands[k - 1] + slack) == total:
        return [f"a coupling exists within {cands[k - 1]!r} < {value!r}"]
    return []


def lp_w1(mu: dict, nu: dict, dmat: np.ndarray) -> float:
    n_left, n_right = dmat.shape
    rows = np.concatenate([np.repeat(np.arange(n_left), n_right),
                           n_left + np.tile(np.arange(n_right), n_left)])
    cols = np.concatenate([np.arange(n_left * n_right)] * 2)
    a_eq = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_left + n_right, n_left * n_right))
    b_eq = [float(m) for m in mu.values()] + [float(m) for m in nu.values()]
    res = linprog(dmat.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def close(a: float, b: float, rel: float = 1e-9, floor: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


@lru_cache(maxsize=None)
def _load(path: Path):
    return json.loads(path.read_text())


# -------------------------------------------------------------------- solve

def _solve_inputs(inputs: Path, manifest: dict, job: dict):
    space = _load(inputs / manifest["space_file"])
    coords = dict(zip(space["points"], space["coords"]))
    a, b = _load(inputs / manifest["pairs_file"])["pairs"][job["pair"]]
    mu, nu = weights_of(a), weights_of(b)
    return mu, nu, euclidean(coords, list(mu), list(nu))


def check_solve(inputs: Path, manifest: dict, state, job: dict, output) -> list:
    report, w1 = output
    mu, nu, dmat = _solve_inputs(inputs, manifest, job)
    space = state[0]
    ids = space.point_ids
    problems = []
    idx = {label: i for i, label in enumerate(ids)}
    verbatim = {space.d(idx[a], idx[b]) for a in mu for b in nu} | {0.0}
    if report.value not in verbatim:
        problems.append("w_infinity is not a verbatim support-to-support distance")
    problems += certify_bottleneck(mu, nu, dmat, report.value)
    rows: dict = {}
    cols: dict = {}
    largest = 0.0
    for i, j, mass in report.plan.entries:
        rows[ids[i]] = rows.get(ids[i], Fraction(0)) + Fraction(mass)
        cols[ids[j]] = cols.get(ids[j], Fraction(0)) + Fraction(mass)
        largest = max(largest, space.d(i, j))
    if rows != mu or cols != nu:
        problems.append("plan marginals differ from mu and nu")
    if largest != report.value:
        problems.append("plan's largest edge differs from the value")
    reference = lp_w1(mu, nu, dmat)
    if not close(w1, reference, 1e-9, 0.0):
        problems.append(f"w_1 {w1!r} differs from the LP optimum {reference!r}")
    return problems


def corrupt_solve(inputs: Path, manifest: dict, state, job: dict, output):
    report, w1 = output
    space = state[0]
    mu, nu, _ = _solve_inputs(inputs, manifest, job)
    idx = {label: i for i, label in enumerate(space.point_ids)}
    below = [d for d in {space.d(idx[a], idx[b]) for a in mu for b in nu} if d < report.value]
    smaller = max(below, default=0.0)
    yield "w_infinity one candidate too small", (dataclasses.replace(report, value=smaller), w1)
    entries = list(report.plan.entries)
    i, j, mass = entries[0]
    other = next(idx[b] for b in nu if idx[b] != j)
    entries[0] = (i, other, mass)
    plan = SimpleNamespace(entries=tuple(entries))
    yield "plan entry moved to another target", (SimpleNamespace(value=report.value, plan=plan), w1)
    yield "w_1 off by one part in a million", (report, w1 * (1 + 1e-6))


# -------------------------------------------------------------------- torus

def _torus(n: int):
    def label(i, j):
        return f"x{i % n}y{j % n}"

    def parse(lbl):
        i, j = lbl[1:].split("y")
        return int(i), int(j)

    return label, parse


def _torus_dist(n: int, a_labels, b_labels) -> np.ndarray:
    _, parse = _torus(n)
    a = np.array([parse(x) for x in a_labels], dtype=float) / n
    b = np.array([parse(y) for y in b_labels], dtype=float) / n
    t = np.abs(a[:, None, :] - b[None, :, :]) % 1.0
    t = np.minimum(t, 1.0 - t)
    return np.sqrt((t ** 2).sum(axis=2))


def _row_gap(n: int, j: int, row: int) -> float:
    k = abs(j - row) % n
    return min(k, n - k) / n


def _torus_measure(n: int, kind: str, row: int) -> dict:
    label, _ = _torus(n)
    if kind == "uniform":
        return {label(i, row): Fraction(1, n) for i in range(n)}
    return {label(0, 0): Fraction(3, 4), label(n // 2, 0): Fraction(1, 4)}


def _push(n: int, weights: dict, steps: int) -> dict:
    """The shear (x, y) -> (x + y, y), applied ``steps`` times."""
    label, parse = _torus(n)
    out: dict = {}
    for lbl, w in weights.items():
        i, j = parse(lbl)
        key = label(i + steps * j, j)
        out[key] = out.get(key, Fraction(0)) + w
    return out


def check_torus(inputs: Path, manifest: dict, state, job: dict, output) -> list:
    code, stdout, stderr = output
    n = manifest["grid_n"]
    row = job["row"]
    _, parse = _torus(n)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"no JSON report (exit {code}): {stderr.strip()}"]
    notion = job["notion"]
    problems = []
    stable = "StableAtResolution"
    unstable = "UnstableWitness"
    probes = report["probes"]
    witness = report["witness"]

    def expect(verdict, exit_code):
        if report["verdict"] != verdict or code != exit_code:
            problems.append(f"verdict {report['verdict']} (exit {code}), expected {verdict}")

    def row_distance(record):
        return max(_row_gap(n, parse(a)[1], row) for a in weights_of(record["weights"]))

    def constant_orbit(record):
        # The shear keeps every row, so the distance to a row set is the
        # same at every step: the sup is the starting distance, at step 0.
        if not close(float(record["sup_distance"]), row_distance(record), 1e-11) \
                or record["argmax_step"] != 0:
            problems.append(f"{record['label']}: distance to row {row} not constant")

    def certified(record, mu):
        probe = _push(n, weights_of(record["weights"]), record["argmax_step"])
        dmat = _torus_dist(n, list(probe), list(mu))
        return [f"{record['label']}: {p}" for p in
                certify_bottleneck(probe, mu, dmat, float(record["sup_distance"]))]

    if notion == "lyapunov":
        expect(stable, 0)
        for record in probes:
            constant_orbit(record)
    elif notion == "asymptotic":
        expect(unstable, 7)
        for record in probes:
            constant_orbit(record)
        near = sorted((j for j in range(row - 2, row + 3) if j % n != row), key=lambda j: j % n)
        first = (near[0] % n) * n
        if witness is None or witness["label"] != f"point{first}":
            problems.append(f"asymptotic witness is not point{first}")
    elif notion == "exponential":
        expect(unstable, 7)
        if len(probes) != 1 or probes[0]["argmax_step"] != 0 \
                or not close(float(probes[0]["sup_distance"]), 1.0 / n, 1e-11):
            problems.append("neighborhood orbit does not stay at distance 1/n")
    elif notion == "attractor":
        expect(unstable, 7)
        stray = min((row - 1) % n, (row + 1) % n) * n
        if witness is None or witness["label"] != f"intersection/point{stray}" \
                or not close(float(witness["sup_distance"]), 1.0 / n, 1e-11):
            problems.append(f"attractor witness is not intersection/point{stray} at 1/n")
    else:
        mu = _torus_measure(n, job["measure"], row)
        if _push(n, mu, 1) != mu:
            problems.append("probed measure is not a fixed point of the shear")
        for record in probes:
            problems += certified(record, mu)
        if job["measure"] == "uniform":
            expect(stable, 0)
            if any(float(r["sup_distance"]) > float(r["allowance"]) for r in probes):
                problems.append("stable verdict with a probe beyond its allowance")
        else:
            expect(unstable, 7)
            extra = [r for r in probes if r["label"] == "extra/lopsided_row1"]
            peak = math.sqrt(0.25 + 1.0 / n ** 2)
            if len(extra) != 1 or extra[0]["argmax_step"] != n // 2 \
                    or not close(float(extra[0]["sup_distance"]), peak, 1e-11):
                problems.append("lopsided_row1 orbit does not peak at the half turn")
            if witness is None or float(witness["sup_distance"]) <= float(witness["allowance"]):
                problems.append("unstable verdict without a witness beyond its allowance")
    return problems


def corrupt_torus(inputs: Path, manifest: dict, state, job: dict, output):
    code, stdout, stderr = output
    report = json.loads(stdout)
    flipped = dict(report)
    flipped["verdict"] = "UnstableWitness" if report["verdict"] != "UnstableWitness" else "StableAtResolution"
    yield "verdict flipped", (7 if code == 0 else 0, json.dumps(flipped), stderr)
    if report["probes"]:
        shifted = json.loads(stdout)
        record = max(shifted["probes"], key=lambda r: float(r["sup_distance"]))
        if job["notion"] == "measure-lyapunov":
            n = manifest["grid_n"]
            mu = _torus_measure(n, job["measure"], job["row"])
            probe = _push(n, weights_of(record["weights"]), record["argmax_step"])
            cands = candidates(_torus_dist(n, list(probe), list(mu)))
            value = float(record["sup_distance"])
            record["sup_distance"] = f"{max(c for c in cands if c < value - 1e-9):.12g}"
            yield "orbit distance one candidate too small", (code, json.dumps(shifted), stderr)
        else:
            record["argmax_step"] += 1
            yield "orbit maximum moved off step 0", (code, json.dumps(shifted), stderr)


# ---------------------------------------------------------------- decompose

def _instance(inputs: Path, job: dict):
    obj = _load(inputs / job["file"])
    xi = weights_of(obj["xi"]["weights"])
    sets = [frozenset(block) for block in obj["sets"]]
    targets = [Fraction(t["num"], t["den"]) for t in obj["targets"]]
    return xi, sets, targets


def check_decompose(inputs: Path, manifest: dict, state, job: dict, output) -> list:
    instance, verdict, result, check = output
    xi, sets, targets = _instance(inputs, job)
    ids = instance.xi.space.point_ids
    if job["feasible"]:
        if not verdict.feasible or result is None:
            return [f"feasible instance reported {verdict}"]
        problems = [] if str(check) == "Valid" else [f"program's own verification: {check}"]
        if len(result.components) != len(sets):
            return problems + ["wrong number of components"]
        total: dict = {}
        for i, nu in enumerate(result.components):
            comp = {ids[a]: Fraction(w) for a, w in nu.weights.items()}
            if not set(comp) <= sets[i]:
                problems.append(f"component {i} leaves its set")
            if sum(comp.values(), Fraction(0)) != targets[i]:
                problems.append(f"component {i} has the wrong mass")
            for a, w in comp.items():
                total[a] = total.get(a, Fraction(0)) + w
        if {a: w for a, w in total.items() if w} != xi:
            problems.append("components do not sum to xi atom by atom")
        return problems
    if verdict.feasible:
        return ["infeasible instance reported feasible"]
    problems = []
    subset = tuple(verdict.subset)
    if verdict.condition != "subset-bound" or subset != (job["witness_set"],):
        problems.append(f"witness {verdict.condition} {subset}, built to fail at ({job['witness_set']},)")
    union = frozenset().union(*(sets[i] for i in subset))
    lhs = sum((xi.get(a, Fraction(0)) for a in union), Fraction(0))
    rhs = sum((targets[i] for i in subset), Fraction(0))
    if not lhs < rhs or lhs != verdict.lhs or rhs != verdict.rhs:
        problems.append("witness deficit does not recompute")
    atoms = sorted(xi)
    allowed = np.array([[a in s for a in atoms] for s in sets])
    _, (supply, demand) = scaled(targets, [xi[a] for a in atoms])
    if max_flow_value(supply, demand, allowed) == sum(supply):
        problems.append("max-flow routes every target: the instance is feasible")
    return problems


def corrupt_decompose(inputs: Path, manifest: dict, state, job: dict, output):
    instance, verdict, result, check = output
    if result is None:
        lifted = dataclasses.replace(verdict, lhs=verdict.lhs + Fraction(1, 64))
        yield "witness deficit altered", (instance, lifted, result, check)
        yield "reported feasible", (instance, dataclasses.replace(verdict, feasible=True), None, None)
        return
    components = list(result.components)
    k = next(i for i, c in enumerate(components) if len(c.weights) >= 1)
    weights = dict(components[k].weights)
    atom = min(weights)
    target = next(a for a in range(instance.xi.space.n_points) if a != atom)
    weights[target] = weights.get(target, Fraction(0)) + weights.pop(atom)
    components[k] = SimpleNamespace(weights=weights)
    moved = SimpleNamespace(components=tuple(components))
    yield "component atom moved", (instance, verdict, moved, check)


# ----------------------------------------------------------------- converge

def _sequence(inputs: Path, job: dict):
    obj = _load(inputs / job["file"])
    coords = dict(zip(obj["space"]["points"], obj["space"]["coords"]))
    terms = [weights_of(t) for t in obj["terms"]]
    return coords, terms, weights_of(obj["limit"])


def _fits(term: dict, limit: dict) -> bool:
    den, (a, b) = scaled(list(term.values()), list(limit.values()))
    return sum(a) <= INT32_MAX


def sampled_terms(inputs: Path, job: dict) -> list:
    """First, middle and last term, each moved back to the nearest earlier
    term whose masses scale to 32-bit capacities (the vanishing atoms' tiny
    masses outgrow them late in the sequence)."""
    _, terms, limit = _sequence(inputs, job)
    picks = []
    for n in (0, len(terms) // 2, len(terms) - 1):
        while n > 0 and not _fits(terms[n], limit):
            n -= 1
        if n not in picks:
            picks.append(n)
    return picks


def check_converge(inputs: Path, manifest: dict, state, job: dict, output) -> list:
    sequence, report = output
    expect = job["expect"]
    coords, terms, limit = _sequence(inputs, job)
    ids = sequence.space.point_ids
    problems = []
    if report.overall != expect["overall"]:
        problems.append(f"overall {report.overall}, built to be {expect['overall']}")
    separating = report.verdict_for("separating-mass")
    if expect["witness"] is None:
        if report.witness is not None:
            problems.append(f"unexpected witness {report.witness}")
        if separating.stabilization_index != expect["index"]:
            problems.append(f"separating-mass stabilises at {separating.stabilization_index}, "
                            f"built to stabilise at {expect['index']}")
    else:
        got = report.witness and (report.witness[0], report.witness[1],
                                  sorted(ids[a] for a in report.witness[2]))
        if got != tuple(expect["witness"][:2]) + (expect["witness"][2],):
            problems.append(f"witness {got}, built to be {expect['witness']}")
    if len(report.deltas) != len(terms) or len(report.w1s) != len(terms):
        return problems + ["one delta and one w_1 per term expected"]
    for n in sampled_terms(inputs, job):
        term = terms[n]
        dmat = euclidean(coords, list(term), list(limit))
        problems += [f"delta[{n}]: {p}" for p in certify_bottleneck(term, limit, dmat, report.deltas[n])]
        reference = lp_w1(term, limit, dmat)
        if not close(report.w1s[n], reference):
            problems.append(f"w_1[{n}] {report.w1s[n]!r} differs from the LP optimum {reference!r}")
    return problems


def corrupt_converge(inputs: Path, manifest: dict, state, job: dict, output):
    sequence, report = output
    other = "NotDConvergent" if report.overall != "NotDConvergent" else "Inconclusive"
    yield "overall verdict changed", (sequence, dataclasses.replace(report, overall=other))
    verdicts = tuple(
        dataclasses.replace(v, stabilization_index=(v.stabilization_index or 0) + 1)
        if v.name == "separating-mass" else v
        for v in report.verdicts
    )
    witness = report.witness and (report.witness[0], report.witness[1] + 1, report.witness[2])
    yield "index off by one", (sequence, dataclasses.replace(report, verdicts=verdicts, witness=witness))
    n = sampled_terms(inputs, job)[-1]
    coords, terms, limit = _sequence(inputs, job)
    cands = candidates(euclidean(coords, list(terms[n]), list(limit)))
    below = [c for c in cands if c < report.deltas[n] * (1 - 1e-9)]
    if below:
        deltas = list(report.deltas)
        deltas[n] = float(below[-1])
        yield "delta one candidate too small", (sequence, dataclasses.replace(report, deltas=tuple(deltas)))
    w1s = list(report.w1s)
    w1s[n] = w1s[n] * (1 + 1e-6) + 1e-9
    yield "w_1 perturbed", (sequence, dataclasses.replace(report, w1s=tuple(w1s)))


CHECKS = {
    "solve": (check_solve, corrupt_solve),
    "torus": (check_torus, corrupt_torus),
    "decompose": (check_decompose, corrupt_decompose),
    "converge": (check_converge, corrupt_converge),
}
