"""Property tests: `w_infinity` against the subset-condition oracle
`w_infinity_bruteforce`, on spaces of all three metric rules.

The value must equal the oracle's bit for bit, and the plan must be an exact
witness: positive masses, marginals equal to both measures as rationals, and
a largest edge equal to the value.  The search starts at the singleton-Hall
bound: the bound must never exceed the value, one probe must suffice when it
equals the value, and the plan must be the exact max flow at the value, the
witness a plain bisection ends with.  Coordinates sit on a coarse grid and
matrix entries take few values, so equal distances (ties) are common.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import METRIC_RULES, build_space
from bottleneck_ot.transport import (
    _Bipartite,
    _flow_at_threshold,
    _singleton_hall_bound,
    w_infinity,
    w_infinity_bruteforce,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)
ORACLE_CAP = 36  # w_infinity_bruteforce accepts |supp mu| * |supp nu| <= 36


@st.composite
def spaces(draw, rule: str, max_points: int = 7):
    n = draw(st.integers(1, max_points))
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
    value, pairs, flows = _flow_at_threshold(net, report.value)
    assert value == net.total
    assert report.plan.entries == net.entries(pairs, flows)
