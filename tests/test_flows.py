"""The integer flow core, its invariant checks, and oracles beyond the brute-force caps."""
from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot import cli, fileio
from bottleneck_ot.flows import bipartite_network, max_flow, min_cost_max_flow, scale_masses
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space
from bottleneck_ot.transport import w_infinity, w_p, w_p_plan

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_scale_masses_uses_the_common_denominator():
    quarters = [Fraction(1, 4), Fraction(3, 4)]
    sixths = [Fraction(1, 6), Fraction(5, 6)]
    denom, (a, b) = scale_masses(quarters, sixths)
    assert denom == 12
    assert a == [3, 9] and b == [2, 10]


def test_max_flow_on_a_small_network():
    # Classic four-node diamond with a cross edge; the min cut is {s} -> 2 + 3.
    edges = [(0, 1, 3), (0, 2, 2), (1, 2, 5), (1, 3, 2), (2, 3, 3)]
    value, flows, reached = max_flow(4, edges, 0, 3)
    assert value == 5
    assert flows[0] + flows[1] == 5 and flows[3] + flows[4] == 5
    for (u, v, cap), f in zip(edges, flows):
        assert 0 <= f <= cap
    assert reached == [True, False, False, False]


@st.composite
def networks(draw):
    """Up to 7 nodes and 20 edges, parallel edges and 2-cycles included."""
    n = draw(st.integers(2, 7))
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 9))
                          .filter(lambda e: e[0] != e[1]), max_size=20))
    return n, edges, source, sink


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(networks())
def test_max_flow_reports_a_minimum_cut(network):
    n_nodes, edges, source, sink = network
    value, flows, reached = max_flow(n_nodes, edges, source, sink)
    net = [0] * n_nodes
    for (u, v, cap), f in zip(edges, flows):
        assert 0 <= f <= cap
        net[u] -= f
        net[v] += f
    assert net[sink] == value == -net[source]
    assert all(x == 0 for k, x in enumerate(net) if k not in (source, sink))
    # No flow exceeds the capacity of a cut, so a cut of capacity equal to
    # the value is a minimum one.
    assert reached[source] and not reached[sink]
    assert value == sum(cap for u, v, cap in edges if reached[u] and not reached[v])


def test_bipartite_network_layout():
    n_nodes, edges, source, sink = bipartite_network([2, 1], [3], [(0, 0), (1, 0)])
    assert (n_nodes, source, sink) == (5, 0, 4)
    assert edges == [(0, 1, 2), (0, 2, 1), (1, 3, 3), (2, 3, 3), (3, 4, 3)]


def test_transportation_simplex_pivots_away_from_a_poor_start():
    # Two rows, two columns, one unit each.  The least-cost start takes the
    # cheapest cell (0, 0) and is left with (1, 1): cost 1 + 10.  Only a pivot
    # reaches the optimum (0, 1) + (1, 0), cost 2 + 2.
    value, flows = min_cost_max_flow([1, 1], [1.0, 2.0, 2.0, 10.0], [1, 1])
    assert value == 2
    assert flows == {1: 1, 2: 1}


def test_transportation_simplex_solves_degenerate_assignments():
    # Equal masses make every basis degenerate; the result must still be a
    # least-cost permutation, found without cycling.
    rng = random.Random(5)
    for n in range(1, 6):
        distances = [float(rng.randint(0, 4)) for _ in range(n * n)]
        value, flows = min_cost_max_flow([3] * n, distances, [3] * n)
        assert value == 3 * n and set(flows.values()) <= {1, 2, 3}
        rows, cols = [0] * n, [0] * n
        for k, units in flows.items():
            rows[k // n] += units
            cols[k % n] += units
        assert rows == cols == [3] * n
        best = min(sum(distances[i * n + j] for i, j in enumerate(perm))
                   for perm in permutations(range(n)))
        assert sum(distances[k] * units for k, units in flows.items()) == 3 * best


@pytest.mark.parametrize("p", [1, 2])
def test_min_cost_flow_is_exact_across_wide_cost_ranges(p):
    # Rows offer 2 and 1 units, columns take 1 and 2.  The least-cost start
    # puts a unit on the tiny cell (0, 0), which forces one onto the huge cell
    # (1, 1): cost tiny + 1.5 huge.  The optimum leaves both empty, at
    # 1.5 huge: a difference of tiny that no float sum with huge can show.
    # The integer images of the costs keep the pivot exact, also for p = 2,
    # where tiny**2 underflows and huge**2 overflows a float.
    tiny, huge = 1e-200, 1e200
    value, flows = min_cost_max_flow([2, 1], [tiny, huge / 2, huge / 2, huge], [1, 2], p)
    assert value == 3
    assert flows == {1: 2, 2: 1}


def test_w_p_leaves_out_pairs_at_infinite_distance():
    inf = float("inf")
    space = build_space(["a", "b", "c"], "explicit-matrix",
                        matrix=[[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]])
    mu = make_measure(space, [(0, Fraction(1, 2)), (2, Fraction(1, 2))])
    nu = make_measure(space, [(1, Fraction(1, 2)), (2, Fraction(1, 2))])
    assert w_p(mu, nu, 1) == 0.5
    assert w_p(mu, nu, 2) == 0.5 ** 0.5
    far = make_measure(space, [(1, Fraction(1))])
    assert w_p(mu, far, 1) == inf
    assert w_p_plan(mu, far, 2) == (inf, None)


_SHORT_BY_ONE = """
import sys
assert sys.flags.optimize, "run me under python -O"
from bottleneck_ot import cli, transport
from bottleneck_ot.errors import SolverInvariantError
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space
from fractions import Fraction

space = build_space(["x", "y", "z"], "euclidean", coords=[[0.0], [1.0], [3.0]])
mu = make_measure(space, [(0, Fraction(1, 3)), (1, Fraction(2, 3))])
nu = make_measure(space, [(1, Fraction(1, 2)), (2, Fraction(1, 2))])

def short(routine):
    def patched(*args, **kwargs):
        value, *rest = routine(*args, **kwargs)
        return (value - 1, *rest)
    return patched

transport.{name} = short(transport.{name})
try:
    {call}
except SolverInvariantError as exc:
    print("raised", exc)
else:
    print("not raised")
"""


# A feasibility verdict, handed to decompose, that lets through an instance
# whose mass lies outside every set, so the construction finds no occupied
# cell to slice.
_NO_OCCUPIED_CELL = """
import sys
assert sys.flags.optimize, "run me under python -O"
from fractions import Fraction
from bottleneck_ot import decomposition
from bottleneck_ot.errors import SolverInvariantError
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space

space = build_space(["x", "y", "z"], "euclidean", coords=[[0.0], [1.0], [3.0]])
xi = make_measure(space, [(0, Fraction(2))])
instance = decomposition.DecompositionInstance.build(xi, [{1}, {2}], [1, 1])
try:
    decomposition.decompose(instance, verdict=decomposition.FeasibilityVerdict(True))
except SolverInvariantError as exc:
    print("raised", exc)
else:
    print("not raised")
"""

# A measure whose stored total mass disagrees with its weights.
_INTERVALS_SHORT_OF_ONE = """
import sys
assert sys.flags.optimize, "run me under python -O"
from fractions import Fraction
from bottleneck_ot.errors import SolverInvariantError
from bottleneck_ot.measures import DiscreteMeasure, interval_representation
from bottleneck_ot.spaces import build_space

space = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])
mu = DiscreteMeasure(space, {0: Fraction(1, 2)}, Fraction(1))
try:
    interval_representation(mu)
except SolverInvariantError as exc:
    print("raised", exc)
else:
    print("not raised")
"""

# Negative weights, from a caller or in a hand-built measure that is pushed.
_NEGATIVE_WEIGHT = """
import sys
assert sys.flags.optimize, "run me under python -O"
from fractions import Fraction
from bottleneck_ot.measures import DiscreteMeasure, make_measure, pushforward
from bottleneck_ot.spaces import build_space

space = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])
hand_built = DiscreteMeasure(space, {0: Fraction(1, 2), 1: Fraction(-1, 2)}, Fraction(0))
calls = [lambda: make_measure(space, [(0, Fraction(3, 2)), (1, Fraction(-1, 2))]),
         lambda: make_measure(space, {1: -1}),
         lambda: pushforward(hand_built, [1, 0])]
messages = []
for call in calls:
    try:
        call()
    except ValueError as exc:
        messages.append(str(exc))
print("raised " + "; ".join(messages) if len(messages) == len(calls) else "not raised")
"""

# Images outside the space, and maps undefined at a support atom.
_UNKNOWN_IMAGE = """
import sys
assert sys.flags.optimize, "run me under python -O"
from fractions import Fraction
from bottleneck_ot.errors import UnknownAtom
from bottleneck_ot.measures import make_measure, pushforward
from bottleneck_ot.spaces import build_space

space = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])
mu = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
maps = [[0, 2], [0, -1], [0, 1.0], [0], {0: 1}, {0: 0}.__getitem__, {0: 0}.get]
messages = []
for point_map in maps:
    try:
        pushforward(mu, point_map)
    except UnknownAtom as exc:
        messages.append(str(exc))
print("raised " + "; ".join(messages) if len(messages) == len(maps) else "not raised")
"""


def _run_optimized(script):
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised "), done.stdout


@pytest.mark.parametrize("name, call", [
    ("min_cost_max_flow", "transport.w_p(mu, nu, 1)"),
    ("max_flow", "transport.w_infinity(mu, nu)"),
])
def test_invariant_checks_survive_python_O(name, call):
    _run_optimized(_SHORT_BY_ONE.format(name=name, call=call))


@pytest.mark.parametrize("script", [_NO_OCCUPIED_CELL, _INTERVALS_SHORT_OF_ONE, _NEGATIVE_WEIGHT,
                                    _UNKNOWN_IMAGE],
                         ids=["decompose", "interval_representation", "negative_weight",
                              "unknown_image"])
def test_decomposition_and_measure_checks_survive_python_O(script):
    _run_optimized(script)


def test_cli_lets_invariant_errors_propagate(tmp_path, monkeypatch):
    from bottleneck_ot import transport
    from bottleneck_ot.errors import SolverInvariantError

    space = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
    for name, atom in (("a.json", "x"), ("b.json", "y")):
        (tmp_path / name).write_text(json.dumps(
            {"space": space, "weights": [{"atom": atom, "num": 1, "den": 1}]}))
    original = transport.min_cost_max_flow

    def short(*args):
        value, flows = original(*args)
        return value - 1, flows

    monkeypatch.setattr(transport, "min_cost_max_flow", short)
    with pytest.raises(SolverInvariantError):
        cli.main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--p", "1"])


def _write_measure(path: Path, space_obj, atoms):
    path.write_text(json.dumps({"space": space_obj, "weights": [
        {"atom": a, "num": 1, "den": len(atoms)} for a in atoms]}))
    return str(path)


@pytest.mark.parametrize("command", ["dist", "plan"])
def test_shared_space_is_built_once(command, tmp_path, monkeypatch, capsys):
    space = {"points": ["x", "y", "z"], "metric": "euclidean",
             "coords": [[0.0], [1.0], [2.5]]}
    a = _write_measure(tmp_path / "a.json", space, ["x", "y"])
    b = _write_measure(tmp_path / "b.json", space, ["z"])
    calls = []
    original = fileio.build_space

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fileio, "build_space", counting)
    assert cli.main([command, a, b]) == 0
    assert len(calls) == 1
    assert "w_infinity 2" in capsys.readouterr().out


def test_different_spaces_still_mismatch(tmp_path, capsys):
    base = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
    moved = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [2.0]]}
    a = _write_measure(tmp_path / "a.json", base, ["x"])
    b = _write_measure(tmp_path / "b.json", moved, ["y"])
    assert cli.main(["dist", a, b]) == 3
    assert capsys.readouterr().out == ""
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"space": base}))
    assert cli.main(["plan", a, str(broken)]) == 2
    assert cli.main(["plan", str(broken), a]) == 2
    assert capsys.readouterr().out == ""


# Oracles beyond the brute-force caps: scipy certifies supports of 24 to 64
# atoms, where the solvers walk long residual paths.

DENOMINATORS = (60, 64, 81, 96, 100, 125)


def _random_weights(rng, n_atoms):
    """Positive masses over a random denominator, reduced to mixed denominators."""
    den = rng.choice([d for d in DENOMINATORS if d >= n_atoms])
    cuts = sorted(rng.sample(range(1, den), n_atoms - 1))
    bounds = [0, *cuts, den]
    return [Fraction(bounds[k + 1] - bounds[k], den) for k in range(n_atoms)]


def _oracle_pairs(seed, count):
    rng = random.Random(seed)
    n_points = 80
    coords = [[rng.random(), rng.random()] for _ in range(n_points)]
    space = build_space([f"p{i}" for i in range(n_points)], "euclidean", coords=coords)
    for _ in range(count):
        n_mu, n_nu = rng.randint(24, 64), rng.randint(24, 64)
        # Overlapping supports: nu reuses part of mu's atoms.
        atoms_mu = rng.sample(range(n_points), n_mu)
        shared = rng.sample(atoms_mu, rng.randint(4, min(n_mu, n_nu) // 2))
        rest = rng.sample([x for x in range(n_points) if x not in shared], n_nu - len(shared))
        atoms_nu = shared + rest
        mu = make_measure(space, list(zip(atoms_mu, _random_weights(rng, n_mu))))
        nu = make_measure(space, list(zip(atoms_nu, _random_weights(rng, n_nu))))
        yield mu, nu


def _scipy_max_flow(mu, nu, threshold):
    """Max flow value (in units of the common denominator) with scipy."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sources, targets = sorted(mu.weights), sorted(nu.weights)
    den = lcm(*(w.denominator for w in (*mu.weights.values(), *nu.weights.values())))
    total = den
    n = len(sources)
    sink = 1 + n + len(targets)
    rows, cols, caps = [], [], []
    for i, a in enumerate(sources):
        rows.append(0), cols.append(1 + i), caps.append(int(mu.weights[a] * den))
        for j, b in enumerate(targets):
            if mu.space.d(a, b) <= threshold:
                rows.append(1 + i), cols.append(1 + n + j), caps.append(total)
    for j, b in enumerate(targets):
        rows.append(1 + n + j), cols.append(sink), caps.append(int(nu.weights[b] * den))
    graph = sparse.csr_matrix(
        (np.array(caps, dtype=np.int32), (rows, cols)), shape=(sink + 1, sink + 1))
    return csgraph.maximum_flow(graph, 0, sink).flow_value, total


def _linprog_wp(mu, nu, p):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sources, targets = sorted(mu.weights), sorted(nu.weights)
    n, m = len(sources), len(targets)
    cost = np.array([[mu.space.d(a, b) ** p for b in targets] for a in sources]).ravel()
    rows = np.zeros((n + m, n * m))
    for i in range(n):
        rows[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        rows[n + j, j::m] = 1.0
    rhs = [float(mu.weights[a]) for a in sources] + [float(nu.weights[b]) for b in targets]
    result = optimize.linprog(cost, A_eq=rows, b_eq=rhs, bounds=(0, None), method="highs")
    assert result.status == 0
    return result.fun ** (1.0 / p)


@pytest.mark.parametrize("seed", [11, 12])
def test_w_infinity_certified_by_scipy_max_flow(seed):
    pytest.importorskip("scipy")
    for mu, nu in _oracle_pairs(seed, 3):
        report = w_infinity(mu, nu)
        candidates = sorted({0.0} | {mu.space.d(a, b) for a in mu.weights for b in nu.weights})
        assert report.value in candidates
        value, total = _scipy_max_flow(mu, nu, report.value)
        assert value == total
        below = [t for t in candidates if t < report.value]
        if below:
            value, total = _scipy_max_flow(mu, nu, below[-1])
            assert value < total
        rows, cols = {}, {}
        for a, b, mass in report.plan.entries:
            rows[a] = rows.get(a, 0) + mass
            cols[b] = cols.get(b, 0) + mass
            assert mu.space.d(a, b) <= report.value
        assert rows == dict(mu.weights) and cols == dict(nu.weights)
        assert report.plan.bottleneck() == report.value


@pytest.mark.parametrize("seed", [21, 22])
def test_w_p_matches_highs_linear_program(seed):
    pytest.importorskip("scipy")
    for mu, nu in _oracle_pairs(seed, 2):
        for p in (1, 2):
            expected = _linprog_wp(mu, nu, p)
            assert abs(w_p(mu, nu, p) - expected) <= 1e-9 * expected
        value, plan = w_p_plan(mu, nu, 1)
        rows, cols = {}, {}
        for a, b, mass in plan.entries:
            rows[a] = rows.get(a, 0) + mass
            cols[b] = cols.get(b, 0) + mass
        assert rows == dict(mu.weights) and cols == dict(nu.weights)
        assert abs(plan.cost(1) - value) <= 1e-12 * value
