"""Record the CLI matrices pinned by the golden-output tests.

There are three matrices: `stability` (tests/test_stability_cli_outputs.py),
`transport`, the `converge` and `dist --p 1 --plan` runs pinned by
tests/test_transport_cli_outputs.py, and `decompose`
(tests/test_decompose_cli_outputs.py).  Run it against a source tree, normally
an unpacked copy of the parent commit (`git archive <rev> | tar -x -C <dir>`),
to regenerate a golden file:

    python tests/data/record_cli_outputs.py --src <dir> \
        --out tests/data/stability_cli_outputs.json
    python tests/data/record_cli_outputs.py --src <dir> --matrix transport \
        --out tests/data/transport_cli_outputs.json
    python tests/data/record_cli_outputs.py --src <dir> --matrix decompose \
        --out tests/data/decompose_cli_outputs.json

Each argv runs in-process through `bottleneck_ot.cli.main`.  The input files
it needs are written to a temporary directory; argv entries refer to them as
`{dir}/<name>`, and the file contents are stored with the cases so that the
replay test can write them again.  Exit code and stdout are recorded for
every case, stderr only where it holds no path of the temporary directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

TWO_POINTS = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
LINE = {"points": ["a", "b", "c"], "metric": "euclidean", "coords": [[0.0], [1.0], [3.0]]}

FILES = {
    "identity.json": {"space": TWO_POINTS, "map": {"x": "x", "y": "y"}},
    "drain.json": {"space": LINE, "map": {"a": "a", "b": "a", "c": "c"}},
    "half.json": {"space": TWO_POINTS, "weights": [
        {"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]},
    "half_no_dot": {"space": TWO_POINTS, "weights": [
        {"atom": "x", "num": 1, "den": 4}, {"atom": "y", "num": 3, "den": 4}]},
    "drain_fixed.json": {"space": LINE, "weights": [
        {"atom": "a", "num": 2, "den": 3}, {"atom": "c", "num": 1, "den": 3}]},
    "drain_moving.json": {"space": LINE, "weights": [
        {"atom": "b", "num": 1, "den": 1}]},
    "garbled.json": "{not json",
    "bad_map.json": {"space": TWO_POINTS, "map": {"x": "x"}},
}

SINK = ["stability", "--scenario", "sink_source"]
TORUS = ["stability", "--scenario", "torus", "--grid-n", "8"]
IDENTITY = ["stability", "--system", "{dir}/identity.json"]
DRAIN = ["stability", "--system", "{dir}/drain.json"]
SET_NOTIONS = ("lyapunov", "asymptotic", "attractor", "exponential")
ROW0_IDS = ",".join(f"x{i}y0" for i in range(8))


def _cases():
    cases = []
    for fmt in ("table", "json"):
        tail = ["--format", fmt]
        for name in ("sink", "source", "mu_eps:1/8", "mu_eps:1/4"):
            cases.append(SINK + ["--notion", "measure-lyapunov", "--measure", name] + tail)
        for notion in SET_NOTIONS:
            for token in ("sink", "source", "sink,b1"):
                cases.append(SINK + ["--notion", notion, "--set", token] + tail)
        cases.append(SINK + ["--notion", "lyapunov", "--measure", "sink"] + tail)
        cases.append(SINK + ["--n-basin", "4", "--d-xy", "2.0", "--notion",
                             "measure-lyapunov", "--measure", "mu_eps:1/8"] + tail)
        for name in ("uniform_row0", "uniform_row3", "lopsided_row0"):
            cases.append(TORUS + ["--notion", "measure-lyapunov", "--measure", name,
                                  "--horizon", "4"] + tail)
        for notion in SET_NOTIONS:
            cases.append(TORUS + ["--notion", notion, "--set", "row3", "--horizon", "6"] + tail)
        cases.append(IDENTITY + ["--notion", "measure-lyapunov", "--measure",
                                 "{dir}/half.json", "--horizon", "3"] + tail)
        cases.append(DRAIN + ["--notion", "lyapunov", "--set", "a"] + tail)
    cases += [
        # Scenario flags and explicit grids.
        SINK + ["--n-basin", "4", "--d-xy", "2.0", "--notion", "lyapunov", "--set", "sink"],
        SINK + ["--n-basin", "3", "--notion", "exponential", "--set", "sink",
                "--eps", "0.9", "--delta", "0.25", "--delta", "0.5", "--horizon", "8"],
        SINK + ["--notion", "lyapunov", "--set", "sink", "--eps", "0.3", "--delta", "0.1",
                "--delta", "0.2", "--horizon", "5", "--probes", "3", "--seed", "7"],
        SINK + ["--notion", "asymptotic", "--set", "sink", "--tol", "0.1", "--probes", "1"],
        SINK + ["--notion", "attractor", "--set", "sink", "--n-max", "3"],
        SINK + ["--notion", "attractor", "--set", "source", "--n-max", "1", "--eps", "0.3"],
        SINK + ["--notion", "lyapunov", "--measure", "sink", "--set", "sink"],
        # Torus names, explicit ids, routing and a measure on another space.
        TORUS + ["--notion", "measure-lyapunov", "--measure", "lopsided_row2", "--horizon", "8"],
        TORUS + ["--notion", "lyapunov", "--measure", "uniform_row1", "--horizon", "3"],
        TORUS + ["--notion", "lyapunov", "--set", "row0", "--horizon", "8"],
        TORUS + ["--notion", "asymptotic", "--set", "row-1", "--horizon", "3"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "uniform_row-1", "--horizon", "3"],
        TORUS + ["--notion", "lyapunov", "--set", ROW0_IDS, "--horizon", "8"],
        TORUS + ["--notion", "attractor", "--set", ROW0_IDS],
        TORUS + ["--notion", "exponential", "--set", "x0y0", "--horizon", "4"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "{dir}/half.json"],
        ["stability", "--scenario", "torus", "--grid-n", "4", "--notion", "measure-lyapunov",
         "--measure", "uniform_row1"],
        # System files, including a measure path with no dot.
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "{dir}/half_no_dot",
                    "--horizon", "3"],
        IDENTITY + ["--notion", "lyapunov", "--measure", "{dir}/half.json"],
        IDENTITY + ["--notion", "attractor", "--set", "x,y"],
        IDENTITY + ["--notion", "exponential", "--set", "x"],
        DRAIN + ["--notion", "asymptotic", "--set", "a"],
        DRAIN + ["--notion", "attractor", "--set", "a,c"],
        DRAIN + ["--notion", "exponential", "--set", "a", "--horizon", "4"],
        DRAIN + ["--notion", "measure-lyapunov", "--measure", "{dir}/drain_fixed.json",
                 "--delta", "0.5", "--delta", "1.5"],
        # Exit 2: unknown or garbled names.
        SINK + ["--notion", "measure-lyapunov", "--measure", "zzz"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "uniform_row0"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:abc"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:3/2"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:-1/8"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "sink"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "uniform_rowx"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "lopsided_row"],
        SINK + ["--notion", "lyapunov", "--set", "zzz"],
        SINK + ["--notion", "lyapunov", "--set", "row0"],
        TORUS + ["--notion", "lyapunov", "--set", "rowx"],
        TORUS + ["--notion", "lyapunov", "--set", "row"],
        TORUS + ["--notion", "lyapunov", "--set", "x9y9"],
        IDENTITY + ["--notion", "lyapunov", "--set", "z"],
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "{dir}/missing.json"],
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "sink"],
        # Exit 2: a missing --set or --measure.
        SINK + ["--notion", "measure-lyapunov"],
        TORUS + ["--notion", "lyapunov"],
        SINK + ["--notion", "asymptotic"],
        SINK + ["--notion", "attractor"],
        IDENTITY + ["--notion", "exponential"],
        # Exit 2: a set or measure that is not invariant.
        SINK + ["--notion", "lyapunov", "--set", "b1"],
        TORUS + ["--notion", "attractor", "--set", "x0y1"],
        DRAIN + ["--notion", "exponential", "--set", "b"],
        DRAIN + ["--notion", "measure-lyapunov", "--measure", "{dir}/drain_moving.json"],
        # Exit 2: bad scenario parameters and bad system files.
        ["stability", "--scenario", "torus", "--grid-n", "7", "--notion", "lyapunov",
         "--set", "row0"],
        ["stability", "--scenario", "torus", "--grid-n", "2", "--notion", "lyapunov",
         "--set", "row0"],
        ["stability", "--scenario", "sink_source", "--n-basin", "0", "--notion",
         "lyapunov", "--set", "sink"],
        ["stability", "--notion", "lyapunov", "--set", "row0"],
        ["stability", "--system", "{dir}/garbled.json", "--notion", "lyapunov", "--set", "x"],
        ["stability", "--system", "{dir}/bad_map.json", "--notion", "lyapunov", "--set", "x"],
    ]
    return cases


# ---------------------------------------------------------------- transport
#
# Seeded sequences of three classes for `converge`, and measure pairs at
# support 24-64 for `dist --p 1 --plan`, on all three metric rules.

CONVERGE_CLASSES = ("eventually_equal", "vanishing_atom", "approaching")


def _weights(labels, masses):
    return [{"atom": a, "num": w.numerator, "den": w.denominator}
            for a, w in zip(labels, masses)]


def _random_masses(rng, k):
    raw = [rng.randint(1, 8) for _ in range(k)]
    return [Fraction(r, sum(raw)) for r in raw]


def _sequence(rng, k, n_terms, cls):
    """A sequence whose limit sits on L0..L(k-1), 0.08 or more apart.

    * eventually_equal: L0's mass sits on L1 for the first half, then every
      term is the limit;
    * vanishing_atom: 2^-(n+3) of L0's mass sits on the far point z;
    * approaching: L0's mass sits on A_n, which approaches L0 geometrically.
    """
    gap = 0.08
    pts = [(0.5, 0.5), (0.5 - gap, 0.5)]
    while len(pts) < k:
        p = (rng.random(), rng.random())
        if abs(p[1] - 0.5) > 2 * gap and all(math.dist(p, q) >= 1.5 * gap for q in pts):
            pts.append(p)
    n0 = n_terms // 2
    approach = [(0.5 + gap / 2 * 0.8 ** (n - n0 + 0.5), 0.5) for n in range(n_terms)]
    labels = [f"L{i}" for i in range(k)] + ["z"] + [f"A{n}" for n in range(n_terms)]
    coords = [list(p) for p in pts] + [[4.0, 4.0]] + [list(p) for p in approach]
    masses = _random_masses(rng, k)
    limit = _weights(labels[:k], masses)
    terms = []
    for n in range(n_terms):
        if cls == "eventually_equal":
            moved = [Fraction(0), masses[0] + masses[1], *masses[2:]]
            terms.append(_weights(labels[:k], moved) if n < n0 else limit)
        elif cls == "vanishing_atom":
            stray = masses[0] / (1 << (n + 3))
            terms.append(_weights(["L0", "z"], [masses[0] - stray, stray]) + limit[1:])
        else:
            terms.append(_weights([f"A{n}"], masses[:1]) + limit[1:])
    space = {"points": labels, "metric": "euclidean", "coords": coords}
    return {"space": space, "terms": terms, "limit": limit}


def _pair_space(rng, rule, n_points):
    labels = [f"p{i}" for i in range(n_points)]
    if rule == "matrix":
        # Manhattan distances of distinct integer points: a metric with many ties.
        cells = rng.sample([(x, y) for x in range(12) for y in range(12)], n_points)
        matrix = [[float(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in cells] for a in cells]
        return {"points": labels, "metric": "matrix", "matrix": matrix}
    coords = [[rng.random(), rng.random()] for _ in range(n_points)]
    return {"points": labels, "metric": rule, "coords": coords}


def _measure(rng, space, support):
    atoms = rng.sample(space["points"], support)
    return {"space": space, "weights": _weights(atoms, _random_masses(rng, support))}


def _transport_matrix():
    """Files are stored as compact JSON text, which the recording writes as is."""
    rng = random.Random(20261018)
    files, cases = {}, []
    for rep in range(3):  # each class once at each limit support
        for k, n_terms, cls in ((3, 8, CONVERGE_CLASSES[rep]), (5, 12, CONVERGE_CLASSES[rep - 1]),
                                (8, 16, CONVERGE_CLASSES[rep - 2])):
            name = f"sequence_{cls}_k{k}_{rep}.json"
            files[name] = json.dumps(_sequence(rng, k, n_terms, cls))
            cases.append(["converge", f"{{dir}}/{name}"])
            cases.append(["converge", f"{{dir}}/{name}", "--format", "json"])
    for rule, n_points, supports in (("euclidean", 64, ((24, 24), (40, 32), (64, 64))),
                                     ("torus", 48, ((24, 40), (48, 48))),
                                     ("matrix", 40, ((24, 24), (24, 40)))):
        space = _pair_space(rng, rule, n_points)
        for a, b in supports:
            name = f"{rule}_{a}x{b}"
            files[f"{name}_a.json"] = json.dumps(_measure(rng, space, a))
            files[f"{name}_b.json"] = json.dumps(_measure(rng, space, b))
            argv = ["dist", f"{{dir}}/{name}_a.json", f"{{dir}}/{name}_b.json", "--p", "1", "--plan"]
            cases.append(argv)
            if a == b:
                cases.append(argv + ["--format", "json"])
    return files, cases


# ---------------------------------------------------------------- decompose
#
# Seeded feasible instances at m = 1-12 (sums of random components inside
# their sets) reach Base, Case1, Case2, Case3.1 and Case3.3; no run reaches
# Case3.2 (the `decomposition` module docstring says why).  Then zero targets
# at the start, infeasible instances of both kinds, bad input, and the two
# caps.


def _decompose_instance(rng, m, n_atoms, density, dens, zero_targets=0, uncovered=0):
    """Components summed inside random sets; ``zero_targets`` sets get no mass,
    ``uncovered`` atoms outside every set add their mass to target 0."""
    labels = [f"a{i}" for i in range(n_atoms)]
    sets = []
    for i in range(m):
        block = [a for a in range(n_atoms - uncovered) if rng.random() < density]
        sets.append(block or [rng.randrange(n_atoms - uncovered)])
    xi = [Fraction(0)] * n_atoms
    targets = []
    for i, block in enumerate(sets):
        total = Fraction(0)
        if i >= m - zero_targets:
            targets.append(total)
            continue
        for a in block:
            w = Fraction(rng.randint(0, 6), rng.choice(dens))
            xi[a] += w
            total += w
        targets.append(total)
    for a in range(n_atoms - uncovered, n_atoms):
        xi[a] = Fraction(rng.randint(1, 4), rng.choice(dens))
        targets[0] += xi[a]
    space = {"points": labels, "metric": "euclidean", "coords": [[float(a)] for a in range(n_atoms)]}
    return {
        "xi": {"space": space, "weights": _weights([labels[a] for a in range(n_atoms) if xi[a]],
                                                   [w for w in xi if w])},
        "sets": [[labels[a] for a in block] for block in sets],
        "targets": [{"num": t.numerator, "den": t.denominator} for t in targets],
    }


def _overloaded(instance, k):
    """Raise target k above the mass of its set, taking the excess from the
    others in index order: totals stay equal, some subset bound fails."""
    weights = {w["atom"]: Fraction(w["num"], w["den"]) for w in instance["xi"]["weights"]}
    targets = [Fraction(t["num"], t["den"]) for t in instance["targets"]]
    lift = sum((weights.get(a, Fraction(0)) for a in instance["sets"][k]), Fraction(0)) - targets[k] + 1
    for j in range(len(targets)):
        if j != k and lift:
            take = min(lift, targets[j])
            targets[j] -= take
            targets[k] += take
            lift -= take
    return dict(instance, targets=[{"num": t.numerator, "den": t.denominator} for t in targets])


def _decompose_matrix():
    rng = random.Random(20261019)
    two = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
    files = {
        # One cell in two sets: epsilon_0 equals the charged target (Case3.1).
        "one_cell.json": {"xi": {"space": two, "weights": _weights(["x", "y"], [2, 2])},
                          "sets": [["x", "y"], ["x", "y"]],
                          "targets": [{"num": 1, "den": 1}, {"num": 3, "den": 1}]},
        "total_mass.json": {"xi": {"space": two, "weights": _weights(["x"], [1])},
                            "sets": [["x"], ["y"]],
                            "targets": [{"num": 1, "den": 1}, {"num": 1, "den": 2}]},
        "negative_target.json": {"xi": {"space": two, "weights": _weights(["x"], [1])},
                                 "sets": [["x"]], "targets": [{"num": -1, "den": 1}]},
    }
    for m in range(1, 13):
        for rep, (density, dens) in enumerate(((0.5, (1, 2, 4)), (0.3, (1, 3, 8)))):
            files[f"feasible_m{m}_{rep}.json"] = _decompose_instance(rng, m, 6 + m, density, dens)
    for m, zeros in ((3, 1), (5, 2), (8, 1)):
        files[f"zero_targets_m{m}.json"] = _decompose_instance(rng, m, 8, 0.5, (1, 2), zeros)
    for m in (4, 9, 12):
        files[f"overload_m{m}.json"] = _overloaded(_decompose_instance(rng, m, 10, 0.4, (1, 4)), m // 2)
    files["uncovered_m5.json"] = _decompose_instance(rng, 5, 9, 0.5, (1, 2), uncovered=2)
    files["cap_m13.json"] = _decompose_instance(rng, 13, 14, 0.4, (1, 2))
    files["cap_m15.json"] = _decompose_instance(rng, 15, 14, 0.4, (1, 2))
    cases = [["decompose", f"{{dir}}/{name}", "--format", fmt]
             for name in files for fmt in ("table", "json")]
    return files, cases


MATRICES = {
    "stability": (lambda: (FILES, _cases()), "stability_cli_outputs.json"),
    "transport": (_transport_matrix, "transport_cli_outputs.json"),
    "decompose": (_decompose_matrix, "decompose_cli_outputs.json"),
}


def record(src: Path, matrix: str = "stability") -> dict:
    sys.path.insert(0, str(src / "src"))
    from bottleneck_ot import cli

    files, argvs = MATRICES[matrix][0]()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            text = obj if isinstance(obj, str) else json.dumps(obj)
            (Path(tmp) / name).write_text(text)
        cases = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
            stderr = err.getvalue()
            cases.append({
                "argv": argv,
                "exit_code": code,
                "stdout": out.getvalue(),
                "stderr": None if tmp in stderr else stderr,
            })
    return {"files": files, "cases": cases}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="source tree whose src/bottleneck_ot is recorded")
    parser.add_argument("--matrix", choices=sorted(MATRICES), default="stability")
    parser.add_argument("--out", type=Path,
                        help="golden file to write (default: the matrix's file beside this script)")
    args = parser.parse_args()
    out = args.out or Path(__file__).with_name(MATRICES[args.matrix][1])
    out.write_text(json.dumps(record(args.src.resolve(), args.matrix), indent=1) + "\n")


if __name__ == "__main__":
    main()
