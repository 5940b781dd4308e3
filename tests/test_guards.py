"""Guards on the package as a whole.

The package imports nothing outside the standard library, and its core
routines agree with their independent oracles when Python runs with ``-O``,
which strips every ``assert``: no result may rest on an assert statement.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "bottleneck_ot"


def test_package_imports_only_the_standard_library():
    files = sorted((SRC / PACKAGE).glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [PACKAGE if node.level else node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top == PACKAGE or top in sys.stdlib_module_names, (path.name, module)


ORACLE_SCRIPT = """
import random
import sys
from fractions import Fraction

from bottleneck_ot.convergence import (
    MeasureSequence, _separating_outcomes, separating_mass_check, separating_subsets,
)
from bottleneck_ot.decomposition import (
    DecompositionInstance, check_feasibility, decompose, feasibility_by_flow,
    verify_decomposition,
)
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space
from bottleneck_ot.transport import w_infinity, w_infinity_bruteforce, w_p, w_p_enumerate

if __debug__:
    sys.exit("asserts are on: run with python -O")
failures = []
for seed in range(20):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    space = build_space([f"p{i}" for i in range(n)], "euclidean",
                        coords=[[rng.random(), rng.random()] for _ in range(n)])

    def measure(k):
        atoms = rng.sample(range(n), k)
        cuts = sorted(rng.sample(range(1, 16), k - 1))
        bounds = [0] + cuts + [16]
        return make_measure(space, [(a, Fraction(bounds[i + 1] - bounds[i], 16))
                                    for i, a in enumerate(atoms)])

    mu, nu = measure(rng.randint(1, min(n, 6))), measure(rng.randint(1, min(n, 6)))
    if w_infinity(mu, nu).value != w_infinity_bruteforce(mu, nu):
        failures.append(f"w_infinity, seed {seed}")
    for p in (1, 2):
        expected = w_p_enumerate(mu, nu, p)
        if not abs(w_p(mu, nu, p) - expected) <= 1e-12 * max(1.0, expected):
            failures.append(f"w_{p}, seed {seed}")

    m = rng.randint(1, 4)
    sets, components = [], []
    for _ in range(m):
        block = rng.sample(range(n), rng.randint(1, n))
        sets.append(block)
        components.append(make_measure(
            space, [(a, Fraction(rng.randint(0, 6), rng.choice([2, 4, 8]))) for a in block]))
    xi = components[0]
    for c in components[1:]:
        xi = xi.add(c)
    targets = [c.total_mass for c in components]
    if m > 1 and seed % 2:  # move one target's mass to another: often infeasible
        i, j = rng.sample(range(m), 2)
        targets[j] += targets[i]
        targets[i] = Fraction(0)
    instance = DecompositionInstance.build(xi, sets, targets)
    verdict = check_feasibility(instance)
    if verdict.feasible != feasibility_by_flow(instance):
        failures.append(f"check_feasibility, seed {seed}")
    elif verdict.feasible:
        if not verify_decomposition(instance, decompose(instance, verdict=verdict)).valid:
            failures.append(f"decompose, seed {seed}")

# Two clusters of side 1/8, at (0, 0) and at (1, 1).  The first holds a third
# of mu and two quarters of nu; the second, two thirds of mu and nu's half at
# one of them.  Every atom is covered within its cluster, those two thirds are
# not, so the singleton-Hall bound is below the value and the chase must step
# past it.
chased = 0
third, quarter = Fraction(1, 3), Fraction(1, 4)
for seed in range(10):
    rng = random.Random(seed)
    corners = (0, 0, 0, 1, 1)
    space = build_space([f"p{i}" for i in range(5)], "euclidean",
                        coords=[[k + rng.random() / 8, k + rng.random() / 8] for k in corners])
    mu = make_measure(space, [(0, third), (3, third), (4, third)])
    nu = make_measure(space, [(rng.randint(0, 1), quarter), (2, quarter), (3, 2 * quarter)])
    report = w_infinity(mu, nu)
    if report.value != w_infinity_bruteforce(mu, nu):
        failures.append(f"w_infinity on two clusters, seed {seed}")
    chased += report.feasibility_calls >= 2
if not chased:
    failures.append("no two-cluster solve stepped past the singleton-Hall bound")

# Separating-mass outcomes from cell deficits against one direct check per
# set, on limits of up to 10 atoms and terms with mixed denominators.
for seed in range(20):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    space = build_space([f"p{i}" for i in range(n)], "euclidean",
                        coords=[[rng.random(), rng.random()] for _ in range(n)])

    def weights(atoms):
        raw = [rng.randint(1, 9) for _ in atoms]
        return make_measure(space, [(a, Fraction(r, sum(raw))) for a, r in zip(atoms, raw)])

    limit = weights(rng.sample(range(n), rng.randint(1, min(n, 10))))
    terms = [limit if rng.random() < 0.3 else weights(rng.sample(range(n), rng.randint(1, n)))
             for _ in range(rng.randint(1, 8))]
    sequence = MeasureSequence.build(terms, limit)
    direct = [(sep, separating_mass_check(sequence, sep, sep.clearance / 2))
              for sep in separating_subsets(limit)]
    if list(_separating_outcomes(sequence)) != direct:
        failures.append(f"separating outcomes, seed {seed}")
if failures:
    sys.exit("mismatch: " + "; ".join(failures))
print("ok")
"""


def _run_optimized(script: str):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_core_oracles_agree_under_python_O():
    _run_optimized(ORACLE_SCRIPT)


FLOW_CHECK_SCRIPT = """
import sys
from fractions import Fraction

from bottleneck_ot import transport
from bottleneck_ot.errors import SolverInvariantError
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space

if __debug__:
    sys.exit("asserts are on: run with python -O")
space = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])
mu = make_measure(space, [(0, Fraction(1, 4)), (1, Fraction(3, 4))])
nu = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
max_flow, min_cost_max_flow = transport.max_flow, transport.min_cost_max_flow


def off_by_one_unit(n_nodes, edges, source, sink):
    value, flows = max_flow(n_nodes, edges, source, sink)
    pairs = [k for k, (u, v, _) in enumerate(edges) if u != source and v != sink]
    src = next(k for k in pairs if flows[k])
    flows = list(flows)
    flows[src] -= 1
    flows[next(k for k in pairs if k != src)] += 1
    return value, flows


def off_by_one_cell(supply, distances, demand, p=1):
    value, flows = min_cost_max_flow(supply, distances, demand, p)
    src = min(flows)
    dst = next(k for k in range(len(distances)) if k != src)
    flows = dict(flows)
    flows[src] -= 1
    flows[dst] = flows.get(dst, 0) + 1
    return value, flows


failures = []
transport.max_flow = off_by_one_unit
try:
    transport.w_infinity(mu, nu)
    failures.append("w_infinity accepted a flow off its marginals")
except SolverInvariantError:
    pass
transport.max_flow = max_flow
transport.min_cost_max_flow = off_by_one_cell
for solve in (lambda: transport.w_p(mu, nu, 1), lambda: transport.w_p_plan(mu, nu, 2)):
    try:
        solve()
        failures.append("w_p accepted a flow off its marginals")
    except SolverInvariantError:
        pass
transport.min_cost_max_flow = min_cost_max_flow
# A cycle of +-1 keeps every marginal and leaves a negative unit.
net = transport._Bipartite(nu, nu)
try:
    net.cells([(0, 0), (0, 1), (1, 0), (1, 1)], [2, -1, -1, 2])
    failures.append("a negative unit was accepted")
except SolverInvariantError:
    pass
if failures:
    sys.exit("; ".join(failures))
print("ok")
"""


def test_solver_flow_checks_raise_under_python_O():
    _run_optimized(FLOW_CHECK_SCRIPT)
