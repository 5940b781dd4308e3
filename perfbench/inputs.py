"""Seeded input generation for the four workloads.

Every generator takes a ``random.Random`` built from ``--seed`` and writes the
files the program loads into a directory, plus ``manifest.json``: the job list
of one round and the facts each job's output is checked against.  The facts
come from how the inputs were built (the expected verdicts, indices, witness
sets), never from running the program.  The program only ever sees the input
files and the CLI argument vectors.

The size mix of each round is fixed, and so is the amount of work: where a
job's cost swings with its exact input (a 128-atom W1 solve, a decomposition
at m = 10 or 12), the inputs are a fixed design that the seed moves by an
isometry or relabels; elsewhere the seed draws them.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

# solve: one Euclidean space of SOLVE_POINTS points in the unit square, shared
# by every pair.  Each tier is (support size, denominator of mu, denominator
# of nu, pairs per round).
SOLVE_POINTS = 192
SOLVE_TIERS = (
    (128, 256, 256, 1),
    (64, 256, 192, 2),
    (40, 256, 128, 3),
    (28, 128, 96, 8),
    (24, 128, 64, 8),
)

# torus: N x N shear grid.  Each entry is (notion, set or measure kind, rows
# per round, extra CLI flags).  Rows are drawn from the seed; lopsided_row0 is
# the only lopsided row that is a fixed point, so it is not drawn.
TORUS_N = 32
TORUS_JOBS = (
    ("measure-lyapunov", "uniform", 4, ["--horizon", "3"]),
    ("measure-lyapunov", "lopsided0", 2, []),
    ("lyapunov", "row", 6, ["--horizon", "12"]),
    ("asymptotic", "row", 5, ["--horizon", "12"]),
    ("exponential", "row", 6, []),
    ("attractor", "row", 4, []),
)

# decompose: (number of sets m, number of atoms, instances per round,
# infeasible instances among them).
DECOMPOSE_TIERS = (
    (12, 12, 1, 0),
    (10, 14, 3, 1),
    (8, 14, 9, 1),
    (6, 12, 4, 2),
    (4, 10, 3, 1),
)
DECOMPOSE_DEN = 64

# converge: (limit support size k, number of terms, the class of each
# sequence in the round).
CONVERGE_CLASSES = ("eventually_equal", "vanishing_atom", "approaching")
CONVERGE_TIERS = (
    (12, 12, ("eventually_equal",)),
    (10, 16, CONVERGE_CLASSES),
    (8, 24, CONVERGE_CLASSES),
    (6, 20, CONVERGE_CLASSES * 2),
    (4, 12, CONVERGE_CLASSES * 3),
)
CONSISTENT = "ConsistentWithDConvergence"
NOT_CONVERGENT = "NotDConvergent"
INCONCLUSIVE = "Inconclusive"


def _weights(rng: random.Random, n_atoms: int, den: int) -> list[int]:
    """Positive integer numerators over ``den`` summing to ``den``."""
    cuts = sorted(rng.sample(range(1, den), n_atoms - 1))
    bounds = [0, *cuts, den]
    return [bounds[k + 1] - bounds[k] for k in range(n_atoms)]


def _weights_obj(labels, nums, den) -> list:
    return [
        {"atom": label, "num": num, "den": den}
        for label, num in zip(labels, nums)
        if num
    ]


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def make_solve(rng: random.Random, out: Path) -> dict:
    """A fixed design of points, supports and masses, moved by a seeded
    rigid motion and relabelled in a seeded order.

    The time of one 128-atom W1 solve doubles from one random geometry to
    another, and that job is close to half of a round, so a freshly drawn
    geometry per seed would move the figures more than any bound allows.  An
    isometric copy keeps the work and changes every coordinate, label and
    point index the program sees.
    """
    design = random.Random("solve:design")
    base = [(design.random(), design.random()) for _ in range(SOLVE_POINTS)]
    angle, flip = rng.uniform(0.0, 2 * math.pi), rng.choice((1.0, -1.0))
    shift = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    cos, sin = math.cos(angle), math.sin(angle)
    order = list(range(SOLVE_POINTS))
    rng.shuffle(order)
    # Design point p becomes point order[p] of the space, labelled by its position.
    labels = [f"s{order[p]}" for p in range(SOLVE_POINTS)]
    points = [None] * SOLVE_POINTS
    coords = [None] * SOLVE_POINTS
    for p, (x, y) in enumerate(base):
        points[order[p]] = labels[p]
        coords[order[p]] = [cos * x - sin * flip * y + shift[0], sin * x + cos * flip * y + shift[1]]
    _write(out / "space.json", {"points": points, "metric": "euclidean", "coords": coords})
    pairs, jobs = [], []
    for size, den_mu, den_nu, count in SOLVE_TIERS:
        for _ in range(count):
            pair = []
            for den in (den_mu, den_nu):
                atoms = design.sample(range(SOLVE_POINTS), size)
                pair.append(_weights_obj([labels[a] for a in atoms],
                                         _weights(design, size, den), den))
            pairs.append(pair)
            jobs.append({"kind": f"support{size}", "pair": len(pairs) - 1})
    _write(out / "pairs.json", {"pairs": pairs})
    return {"workload": "solve", "space_file": "space.json", "pairs_file": "pairs.json",
            "jobs": _interleave(jobs, rng)}


def make_torus(rng: random.Random, out: Path) -> dict:
    n = TORUS_N
    jobs = []
    for notion, kind, count, flags in TORUS_JOBS:
        rows = rng.sample(range(n), count)
        for row in rows:
            argv = ["stability", "--scenario", "torus", "--grid-n", str(n),
                    "--notion", notion]
            if kind == "uniform":
                argv += ["--measure", f"uniform_row{row}"]
                target = row
            elif kind == "lopsided0":
                argv += ["--measure", "lopsided_row0", "--seed", str(rng.randrange(1000))]
                target = 0
            else:
                argv += ["--set", f"row{row}"]
                target = row
            argv += flags + ["--format", "json"]
            kind_name = f"{notion}/{kind}"
            jobs.append({"kind": kind_name, "argv": argv, "notion": notion,
                         "measure": kind if kind != "row" else None, "row": target})
    return {"workload": "torus", "grid_n": n, "jobs": _interleave(jobs, rng)}


def _decompose_instance(rng: random.Random, design: random.Random, m: int, n_atoms: int,
                        infeasible: bool):
    """A feasible instance built from its own decomposition, optionally broken.

    ``design`` draws the structure: each atom joins each set with probability
    0.4 (and at least one set), each membership carries a random share of the
    atom's mass, and the targets are the component totals, so the subset
    bounds hold by construction.  ``rng`` draws the atoms' order in the space
    and their coordinates.  An infeasible instance raises one set's target
    above the whole mass of that set and lowers others by the same amount,
    which keeps the totals equal and makes that singleton the first violated
    subset.
    """
    labels = [f"a{i}" for i in range(n_atoms)]
    rng.shuffle(labels)
    members = []
    for _ in range(n_atoms):
        members.append({i for i in range(m) if design.random() < 0.4} or {design.randrange(m)})
    comp = [[design.randint(1, 6) if i in members[a] else 0 for a in range(n_atoms)]
            for i in range(m)]
    xi = [sum(comp[i][a] for i in range(m)) for a in range(n_atoms)]
    sets = [[labels[a] for a in range(n_atoms) if i in members[a]] for i in range(m)]
    targets = [sum(comp[i]) for i in range(m)]
    witness = None
    if infeasible:
        # Any set that misses an atom can be overloaded by moving target mass
        # from the others.
        k = design.choice([i for i in range(m) if len(sets[i]) < n_atoms])
        mass_k = sum(xi[a] for a in range(n_atoms) if k in members[a])
        lift = mass_k - targets[k] + 1
        targets[k] += lift
        for j in sorted((j for j in range(m) if j != k), key=lambda j: -targets[j]):
            take = min(lift, targets[j])
            targets[j] -= take
            lift -= take
            if not lift:
                break
        witness = k
    points = sorted(labels)
    instance = {
        "xi": {
            "space": {"points": points, "metric": "euclidean",
                      "coords": [[rng.random()] for _ in points]},
            "weights": _weights_obj(labels, xi, DECOMPOSE_DEN),
        },
        "sets": sets,
        "targets": [{"num": t, "den": DECOMPOSE_DEN} for t in targets],
    }
    return instance, witness


def make_decompose(rng: random.Random, out: Path) -> dict:
    """Feasible instances follow a fixed design and infeasible ones a seeded one.

    The work of one decomposition swings by 20-35% between random instances
    of the same size, and a round cannot hold enough of them to average that
    out, so the seed moves only labels, atom order and coordinates of the
    feasible instances.  Infeasible instances exit early and cost little
    whatever they are, so the seed draws them whole.
    """
    jobs = []
    for m, n_atoms, count, n_bad in DECOMPOSE_TIERS:
        for k in range(count):
            bad = k < n_bad
            design = rng if bad else random.Random(f"decompose:{m}:{n_atoms}:{k}")
            instance, witness = _decompose_instance(rng, design, m, n_atoms, bad)
            name = f"instance{len(jobs):02d}.json"
            _write(out / name, instance)
            jobs.append({"kind": f"m{m}/{'infeasible' if witness is not None else 'feasible'}",
                         "file": name, "feasible": witness is None,
                         "witness_set": witness})
    return {"workload": "decompose", "jobs": _interleave(jobs, rng)}


def _converge_sequence(rng: random.Random, k: int, n_terms: int, cls: str):
    """A sequence whose verdict and index follow from its construction.

    The limit's atoms L0..L(k-1) sit in the unit square, at least ``gap``
    apart, with L1 at exactly ``gap`` from L0 on the side away from the
    approach ray, so every separating set containing L0 has clearance at
    least ``gap`` and {L0} has exactly ``gap``.  Point ``z`` lies far away.
    Points A0, A1, ... approach L0 along a ray.  The first ``n0`` terms are
    perturbed; which terms and how depends on the class:

    * eventually_equal: L0's mass sits on L1 for n < n0, then every term
      equals the limit.  Consistent; every criterion stabilises at n0.
    * vanishing_atom: 2^-(n+3) of L0's mass sits on z in every term.  Not
      convergent; the first separating set, {L0}, fails at the last index.
    * approaching: L0's mass sits on A_n, whose distance to L0 shrinks
      geometrically and drops below gap/2 from n0 on.  Inconclusive; the
      separating-mass criterion stabilises at n0.
    """
    gap = 0.08
    x0, y0 = 0.5, 0.5
    pts = [(x0, y0), (x0 - gap, y0)]
    while len(pts) < k:
        p = (rng.random(), rng.random())
        off_ray = p[0] <= x0 - gap / 2 or abs(p[1] - y0) > 2 * gap
        if off_ray and all(math.dist(p, q) >= 1.5 * gap for q in pts):
            pts.append(p)
    n0 = n_terms // 2
    # r_n > gap/2 exactly for n < n0, shrinking by 0.8 per step.
    radii = [gap / 2 * 0.8 ** (n - n0 + 0.5) for n in range(n_terms)]
    approach = [(x0 + r, y0) for r in radii]
    labels = [f"L{i}" for i in range(k)] + ["z"] + [f"A{n}" for n in range(n_terms)]
    coords = [list(p) for p in pts] + [[4.0, 4.0]] + [list(p) for p in approach]
    den = 1 << (k + 2)
    nums = _weights(rng, k, den)
    limit = _weights_obj(labels[:k], nums, den)
    terms = []
    for n in range(n_terms):
        if cls == "eventually_equal":
            if n < n0:
                moved = [0, nums[0] + nums[1], *nums[2:]]
                terms.append(_weights_obj(labels[:k], moved, den))
            else:
                terms.append(limit)
        elif cls == "vanishing_atom":
            scale = 1 << (n + 3)
            stray = Fraction(nums[0], den) / scale
            entries = [{"atom": "L0", "num": (Fraction(nums[0], den) - stray).numerator,
                        "den": (Fraction(nums[0], den) - stray).denominator},
                       {"atom": "z", "num": stray.numerator, "den": stray.denominator}]
            entries += limit[1:]
            terms.append(entries)
        else:
            entries = [{"atom": f"A{n}", "num": nums[0], "den": den}] + limit[1:]
            terms.append(entries)
    sequence = {
        "space": {"points": labels, "metric": "euclidean", "coords": coords},
        "terms": terms,
        "limit": limit,
    }
    if cls == "eventually_equal":
        expect = {"overall": CONSISTENT, "index": n0, "witness": None}
    elif cls == "vanishing_atom":
        expect = {"overall": NOT_CONVERGENT, "index": n_terms - 1,
                  "witness": ["separating-mass", n_terms - 1, ["L0"]]}
    else:
        expect = {"overall": INCONCLUSIVE, "index": n0, "witness": None}
    return sequence, expect


def make_converge(rng: random.Random, out: Path) -> dict:
    jobs = []
    for k, n_terms, classes in CONVERGE_TIERS:
        for cls in classes:
            sequence, expect = _converge_sequence(rng, k, n_terms, cls)
            name = f"sequence{len(jobs):02d}.json"
            _write(out / name, sequence)
            jobs.append({"kind": f"k{k}/{cls}", "file": name, "class": cls,
                         "expect": expect})
    return {"workload": "converge", "jobs": _interleave(jobs, rng)}


def _interleave(jobs: list, rng: random.Random) -> list:
    """Fixed job order for the round: a seeded shuffle, so large and small
    jobs alternate the same way in every round of a run."""
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "solve": make_solve,
    "torus": make_torus,
    "decompose": make_decompose,
    "converge": make_converge,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = GENERATORS[workload](rng, out)
    manifest["seed"] = seed
    _write(out / "manifest.json", manifest)
    return manifest


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        sys.exit(f"usage: python3 {sys.argv[0]} {{{','.join(GENERATORS)}}} SEED DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
