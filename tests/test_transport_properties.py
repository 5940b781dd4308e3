"""Property tests: `w_infinity` against the subset-condition oracle
`w_infinity_bruteforce`, on spaces of all three metric rules.

The value must equal the oracle's bit for bit, and the plan must be an exact
witness: positive masses, marginals equal to both measures as rationals, and
a largest edge equal to the value.  The search is a chase of lower bounds
from the singleton-Hall bound: the bound must never exceed the value, one
probe must suffice when it equals the value, every failed probe's min cut
must violate Hall's condition in integers and lead to a threshold above the
probe and at most the value, and the plan must be the exact max flow at the
value.  Coordinates sit on a coarse grid and matrix entries take few values,
so equal distances (ties) are common.

`w_p` and `w_p_plan` for p = 1, 2 are checked the same way against the
vertex enumeration `w_p_enumerate`, also with all-equal masses (every basis
degenerate) and on matrices with infinite distances between blocks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from bottleneck_ot import transport
from bottleneck_ot.flows import min_cost_max_flow
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import METRIC_RULES, build_space
from bottleneck_ot.transport import (
    TransportPlan,
    _Bipartite,
    _flow_at_threshold,
    _singleton_hall_bound,
    w_infinity,
    w_infinity_bruteforce,
    w_p,
    w_p_enumerate,
    w_p_plan,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)
ORACLE_CAP = 36  # w_infinity_bruteforce accepts |supp mu| * |supp nu| <= 36
ENUMERATION_CAP = 5  # w_p_enumerate takes up to 6 atoms a side, but 6x6 can take seconds


@st.composite
def spaces(draw, rule: str, max_points: int = 7, min_points: int = 1):
    n = draw(st.integers(min_points, max_points))
    ids = [f"p{i}" for i in range(n)]
    if rule == "explicit-matrix":
        # Off-diagonal entries in [1, 2] satisfy the triangle inequality.
        entries = st.sampled_from([1.0, 1.25, 1.5, 2.0])
        upper = {(i, j): draw(entries) for i in range(n) for j in range(i + 1, n)}
        matrix = [[0.0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)]
                  for i in range(n)]
        return build_space(ids, rule, matrix=matrix)
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 7)] * dim), min_size=n, max_size=n,
                          unique=True))
    # Torus coordinates k/8 lie in [0, 1), so distinct cells are distinct points.
    scale = 8.0 if rule == "flat-torus" else 1.0
    return build_space(ids, rule, coords=[[c / scale for c in cell] for cell in cells])


@st.composite
def measures(draw, space, max_atoms: int = 6, probability: bool = True):
    support = draw(st.lists(st.integers(0, space.n_points - 1), min_size=1,
                            max_size=min(max_atoms, space.n_points), unique=True))
    if probability:
        raw = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
        weights = [Fraction(r, sum(raw)) for r in raw]
    else:
        positive = st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12)
        weights = draw(st.lists(positive, min_size=len(support), max_size=len(support)))
    return make_measure(space, list(zip(support, weights)))


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_w_infinity_equals_the_oracle_with_an_exact_witness(rule, data):
    space = data.draw(spaces(rule))
    mu = data.draw(measures(space))
    nu = data.draw(measures(space, max_atoms=ORACLE_CAP // len(mu.weights)))
    report = w_infinity(mu, nu)
    assert report.value == w_infinity_bruteforce(mu, nu)
    rows: dict = {}
    cols: dict = {}
    for i, j, mass in report.plan.entries:
        assert isinstance(mass, Fraction) and mass > 0
        rows[i] = rows.get(i, 0) + mass
        cols[j] = cols.get(j, 0) + mass
    assert rows == dict(mu.weights)
    assert cols == dict(nu.weights)
    assert max(space.d(i, j) for i, j, _ in report.plan.entries) == report.value


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_w_infinity_search_starts_at_a_lower_bound(rule, data):
    space = data.draw(spaces(rule))
    mu = data.draw(measures(space))
    nu = data.draw(measures(space, max_atoms=ORACLE_CAP // len(mu.weights)))
    report = w_infinity(mu, nu)
    assert report.value == w_infinity_bruteforce(mu, nu)
    net = _Bipartite(mu, nu)
    bound = _singleton_hall_bound(net)
    assert bound <= report.value
    if bound == report.value:
        assert report.feasibility_calls == 1
    value, pairs, flows, _ = _flow_at_threshold(net, report.value)
    assert value == net.total
    assert report.plan.entries == _eager_entries(mu, nu, net, pairs, flows[len(net.sources):])


def _eager_entries(mu, nu, net, pairs, units) -> tuple:
    """The entries of a flow's plan, built at once and checked in Fractions."""
    entries = tuple((net.sources[i], net.targets[j], Fraction(f, net.denom))
                    for (i, j), f in zip(pairs, units) if f)
    return TransportPlan(mu, nu, entries).entries


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_plans_read_late_equal_the_plans_built_at_once_from_the_same_flows(rule, data):
    space = data.draw(spaces(rule))
    mu, nu = data.draw(measures(space)), data.draw(measures(space))
    net = _Bipartite(mu, nu)
    report = w_infinity(mu, nu)
    assert "plan" not in vars(report)
    _, pairs, flows, _ = _flow_at_threshold(net, report.value)
    assert report.plan.entries == _eager_entries(mu, nu, net, pairs, flows[len(net.sources):])
    distances = [d for row in net.table for d in row]
    for p in (1, 2):
        _, cells = min_cost_max_flow(net.supply, distances, net.demand, p)
        ks = sorted(cells)
        pairs = [divmod(k, len(net.targets)) for k in ks]
        eager = _eager_entries(mu, nu, net, pairs, [cells[k] for k in ks])
        assert w_p_plan(mu, nu, p)[1].entries == eager


@st.composite
def crowded_pairs(draw, rule: str):
    """mu, and a nu whose atom at one point of a set S of mu's atoms holds
    more than any atom of S but less than mu(S), and whose other atoms lie
    off S.

    S is that point and its nearest atoms of mu.  Each atom of S alone is
    covered near it, S is not, so the singleton-Hall bound is often below the
    value and the chase has to step past it.
    """
    space = draw(spaces(rule, min_points=3))
    mu = draw(measures(space, max_atoms=space.n_points - 1)
              .filter(lambda m: len(m.weights) >= 2))
    hub = draw(st.sampled_from(sorted(mu.weights)))
    crowd = sorted(mu.weights, key=lambda a: space.d(hub, a))[:draw(st.integers(2, 3))]
    least, most = max(mu.weights[a] for a in crowd), sum(mu.weights[a] for a in crowd)
    held = least + (most - least) * Fraction(draw(st.integers(1, 3)), 4)
    others = [a for a in range(space.n_points) if a not in crowd]
    rest = draw(st.lists(st.sampled_from(others), min_size=1, unique=True,
                         max_size=min(len(others), ORACLE_CAP // len(mu.weights) - 1)))
    raw = draw(st.lists(st.integers(1, 6), min_size=len(rest), max_size=len(rest)))
    pieces = [(hub, held)] + [(a, (1 - held) * r / sum(raw)) for a, r in zip(rest, raw)]
    return mu, make_measure(space, pieces)


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_w_infinity_chase_steps_by_hall_violations(rule, data):
    mu, nu = data.draw(crowded_pairs(rule))
    steps, probes = [], []
    step, solve = transport._next_threshold, transport.max_flow

    def record(net, t, violator):
        nxt = step(net, t, violator)
        steps.append((net, t, violator, nxt))
        return nxt

    def flow(n_nodes, edges, source, sink):
        result = solve(n_nodes, edges, source, sink)
        probes.append((edges, *result))
        return result

    with mock.patch.object(transport, "_next_threshold", record), \
            mock.patch.object(transport, "max_flow", flow):
        report = w_infinity(mu, nu)
    value = w_infinity_bruteforce(mu, nu)
    target(float(report.feasibility_calls))  # steer the draws toward longer chases
    assert report.value == value
    assert len(steps) == len(probes) - 1 == report.feasibility_calls - 1
    n = len(mu.weights)
    for (edges, _, _, reached), (_, _, violator, _) in zip(probes, steps):
        # Read from the network alone: the rows the failed max flow reached
        # supply more than the columns paired with them demand.
        rows = [i for i in range(n) if reached[1 + i]]
        cols = {v for u, v, _ in edges[n:] if u - 1 in rows}
        supply = sum(cap for _, v, cap in edges[:n] if v - 1 in rows)
        demand = sum(cap for u, _, cap in edges if u in cols)
        assert supply > demand
        assert rows == violator
    for net, t, violator, nxt in steps:
        # The failed probe's min cut S violates Hall's condition in integers
        # at t: mu(S) > nu(N_t(S)).  The next threshold is a lower bound above t.
        reach = [j for j in range(len(net.targets))
                 if any(net.table[i][j] <= t for i in violator)]
        assert sum(net.supply[i] for i in violator) > sum(net.demand[j] for j in reach)
        assert t < nxt <= value


@st.composite
def blocked_pairs(draw):
    """Two measures on a matrix space split into blocks at infinite distance,
    with some infinite entries inside blocks too.

    Half the draws move each block's mass of mu onto atoms of nu in the same
    block, which often leaves a finite coupling; the rest are left to chance.
    """
    n = draw(st.integers(2, 7))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    entries = st.sampled_from([1.0, 1.25, 1.5, 2.0, math.inf])
    upper = {(i, j): draw(entries) if block[i] == block[j] else math.inf
             for i in range(n) for j in range(i + 1, n)}
    matrix = [[0.0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)]
              for i in range(n)]
    # An infinite entry inside a block breaks the triangle inequality, which
    # validation rejects; the transport solvers take any table of distances.
    space = build_space([f"p{i}" for i in range(n)], "explicit-matrix", matrix=matrix,
                        validate=False)
    mu = draw(measures(space, max_atoms=ENUMERATION_CAP - 1))
    if not draw(st.booleans()):
        return mu, draw(measures(space, max_atoms=ENUMERATION_CAP))
    pieces = []
    for b in {block[a] for a in mu.weights}:
        mass = sum(w for a, w in mu.weights.items() if block[a] == b)
        atoms = draw(st.lists(st.sampled_from([a for a in range(n) if block[a] == b]),
                              min_size=1, max_size=2, unique=True))
        raw = draw(st.lists(st.integers(1, 4), min_size=len(atoms), max_size=len(atoms)))
        pieces += [(a, mass * r / sum(raw)) for a, r in zip(atoms, raw)]
    return mu, make_measure(space, pieces)


def _uniform(measure):
    k = len(measure.weights)
    return make_measure(measure.space, [(a, Fraction(1, k)) for a in measure.weights])


def _check_w_p(mu, nu, finite: bool):
    for p in (1, 2):
        value, plan = w_p_plan(mu, nu, p)
        assert w_p(mu, nu, p) == value
        expected = w_p_enumerate(mu, nu, p)
        assert (value == math.inf) == (expected == math.inf) == (not finite)
        if not finite:
            assert plan is None
            continue
        assert abs(value - expected) <= 1e-12 * max(1.0, expected)
        rows: dict = {}
        cols: dict = {}
        for i, j, mass in plan.entries:
            assert isinstance(mass, Fraction) and mass > 0
            rows[i] = rows.get(i, 0) + mass
            cols[j] = cols.get(j, 0) + mass
        assert rows == dict(mu.weights)
        assert cols == dict(nu.weights)
        assert abs(plan.cost(p) - value) <= 1e-12 * max(1.0, value)


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_w_p_equals_the_vertex_enumeration_with_an_exact_plan(rule, data):
    space = data.draw(spaces(rule))
    mu = data.draw(measures(space, max_atoms=ENUMERATION_CAP))
    nu = data.draw(measures(space, max_atoms=ENUMERATION_CAP))
    if data.draw(st.booleans()):  # all masses equal: every basis is degenerate
        mu, nu = _uniform(mu), _uniform(nu)
    _check_w_p(mu, nu, finite=True)


@PROPERTY_SETTINGS
@given(pair=blocked_pairs())
def test_w_p_is_infinite_exactly_when_no_finite_coupling_exists(pair):
    mu, nu = pair
    # The subset-condition oracle is finite iff a coupling on finite cells exists.
    _check_w_p(mu, nu, finite=w_infinity_bruteforce(mu, nu) < math.inf)


def test_w_p_routes_around_an_infinite_cell():
    # a - b - c is a path with d(a, c) infinite.  The cheapest cell, b to b,
    # leaves a only c, across the infinite distance; the finite optimum sends
    # a to b and b to c instead.
    inf = math.inf
    # Not a metric (d(a, c) > d(a, b) + d(b, c)), so it is built unvalidated.
    space = build_space(["a", "b", "c"], "explicit-matrix", validate=False,
                        matrix=[[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]])
    half = Fraction(1, 2)
    mu = make_measure(space, [(0, half), (1, half)])
    nu = make_measure(space, [(1, half), (2, half)])
    _check_w_p(mu, nu, finite=True)
    assert w_p_plan(mu, nu, 1) == (1.0, w_p_plan(mu, nu, 2)[1])
    assert w_p_plan(mu, nu, 1)[1].entries == ((0, 1, half), (1, 2, half))
