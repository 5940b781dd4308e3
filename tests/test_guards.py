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
if failures:
    sys.exit("mismatch: " + "; ".join(failures))
print("ok")
"""


def test_core_oracles_agree_under_python_O():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", ORACLE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
