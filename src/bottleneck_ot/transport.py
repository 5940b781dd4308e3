"""Exact bottleneck (infinity-Wasserstein) transport plus W1/W2 comparison solvers.

The bottleneck value between finitely supported probability measures is the
smallest threshold t, among the pairwise support distances, at which a coupling
confined to pairs within distance t exists.  Feasibility is an exact max-flow
question with rational capacities, so the returned value is always a verbatim
entry of the distance matrix (or 0) and never a rounded quantity.  The search
is a chase of lower bounds from Hall's condition (Hall 1935; Gale 1957).  It
starts at the singleton-Hall bound, below which a single atom's mass cannot
be covered and which is most often the value.  A probe that falls short is
certified by the min cut that ``flows.max_flow`` reports: the atoms of mu
that its last search reached hold more mass than nu holds within the
threshold of them.  The least threshold at which nu covers that set is the
next probe.  Most solves take one max flow.

``certify`` reads the value off a coupling the caller already holds, with no
flow: a coupling's longest cell bounds the value from above, and a single
atom on that cell that the other measure cannot cover strictly within it
bounds it from below.  The stability probes push an optimal plan along a map
and certify the next step of the orbit this way.

Every solver checks its own result in integers: the units it routes on each
pair, in the common denominator of both measures, must be nonnegative and add
up to every atom's scaled mass exactly, or it raises ``SolverInvariantError``.
A ``SolveReport`` keeps those checked units and builds its ``TransportPlan``,
in ``Fraction`` masses, only when ``plan`` is first read; ``w_p`` builds no
plan at all, and ``w_p_plan`` builds one from the same checked units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import NotProbability, SolverInvariantError, SpaceMismatch, TooLarge, UnsupportedP
from .flows import bipartite_network, max_flow, min_cost_max_flow, scale_masses
from .measures import ZERO, DiscreteMeasure
from .spaces import same_space


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling between two measures with exact marginals."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    entries: tuple  # ((source atom, target atom, Fraction mass), ...)

    def __post_init__(self):
        rows: dict[int, Fraction] = {}
        cols: dict[int, Fraction] = {}
        for i, j, mass in self.entries:
            if mass <= 0:
                raise ValueError("plan entries must carry positive mass")
            rows[i] = rows.get(i, ZERO) + mass
            cols[j] = cols.get(j, ZERO) + mass
        if rows != dict(self.mu.weights) or cols != dict(self.nu.weights):
            raise ValueError("plan marginals do not match the measures")

    def bottleneck(self) -> float:
        space = self.mu.space
        return max((space.d(i, j) for i, j, _ in self.entries), default=0.0)

    def cost(self, p: int) -> float:
        """(sum of d^p * mass)^(1/p), masses exact, costs compensated floats
        (exact where d^p overflows a float)."""
        terms = [(self.mu.space.d(i, j), mass) for i, j, mass in self.entries]
        return _power_mean((d ** p * float(mass) for d, mass in terms), terms, p)


def _plan(mu: DiscreteMeasure, nu: DiscreteMeasure, denom: int, cells) -> TransportPlan:
    """The plan of checked ``cells``, (source atom, target atom, units of 1/denom)."""
    return TransportPlan(mu, nu, tuple((a, b, Fraction(u, denom)) for a, b, u in cells))


@dataclass(frozen=True)
class SolveReport:
    """A W-infinity value with its checked optimal flow.

    ``cells`` holds the flow's nonzero (source atom, target atom, units)
    triples, units of 1/``denom``; no distance table is kept.
    """

    value: float
    feasibility_calls: int
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    denom: int
    cells: tuple

    @cached_property
    def plan(self) -> TransportPlan:
        """The optimal plan, built and checked in ``Fraction``s on first read."""
        return _plan(self.mu, self.nu, self.denom, self.cells)

    @cached_property
    def thresholds_tested(self) -> int:
        """Number of candidate thresholds, the distinct distances between the
        two supports plus 0; counted on first read, as no probe needs it."""
        return len(candidate_thresholds(self.mu, self.nu))


def _require_comparable(mu: DiscreteMeasure, nu: DiscreteMeasure, probability: bool = True):
    if not same_space(mu.space, nu.space):
        raise SpaceMismatch("measures live on different spaces")
    if probability and not (mu.is_probability and nu.is_probability):
        raise NotProbability(
            f"need probability measures, got masses {mu.total_mass} and {nu.total_mass}"
        )


class _Bipartite:
    """One solve's network data, read from the measures once.

    Supports are sorted; masses are scaled to integers by ``denom`` (``total``
    is mu's); ``table[i][j]`` is the distance from ``sources[i]`` to
    ``targets[j]``.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.sources, self.targets = sorted(mu.weights), sorted(nu.weights)
        self.denom, (self.supply, self.demand) = scale_masses(
            [mu.weights[a] for a in self.sources], [nu.weights[b] for b in self.targets]
        )
        self.total = sum(self.supply)
        rows = map(mu.space.row, self.sources)
        self.table = [[row[b] for b in self.targets] for row in rows]

    def cells(self, pairs, units) -> tuple:
        """(source atom, target atom, units), in the order given, of the (i, j)
        pairs whose units are nonzero.

        The units must be nonnegative and route every supply and every demand
        exactly; as the scaled masses are positive, this is the plan's
        marginal check, made in integers.
        """
        rows, cols = [0] * len(self.sources), [0] * len(self.targets)
        out = []
        for (i, j), f in zip(pairs, units):
            if f:
                if f < 0:
                    raise SolverInvariantError(f"negative flow {f} on pair {(i, j)}")
                rows[i] += f
                cols[j] += f
                out.append((self.sources[i], self.targets[j], f))
        if rows != self.supply or cols != self.demand:
            raise SolverInvariantError("flow marginals do not match the scaled masses")
        return tuple(out)


def _flow_at_threshold(net: _Bipartite, t: float):
    """Exact max flow on the pairs with d <= t, in ``bipartite_network``'s
    layout: (value, pairs, edge flows, nodes reached)."""
    pairs = [
        (i, j) for i, row in enumerate(net.table) for j, d in enumerate(row) if d <= t
    ]
    value, flows, reached = max_flow(*bipartite_network(net.supply, net.demand, pairs))
    return value, pairs, flows, reached


def feasible_at_threshold(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> bool:
    """True iff a coupling supported on pairs with d(i, j) <= t exists."""
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    return _flow_at_threshold(net, t)[0] == net.total


def candidate_thresholds(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[float]:
    """Sorted distinct pairwise distances between the two supports, plus 0."""
    return sorted({0.0}.union(*_Bipartite(mu, nu).table))


def _covering_threshold(dists, need: int, offers, floor: float) -> float:
    """Least threshold t >= ``floor`` at which the offers within t of a set
    cover the set's need; ``dists[k]`` is the set's distance to offer k (for
    a single atom, its row of the table).

    Below it the set violates Hall's condition, so no coupling exists; it is
    a table entry or ``floor``.  A set already covered within ``floor`` is not
    sorted.
    """
    if sum(m for d, m in zip(dists, offers) if d <= floor) >= need:
        return floor
    got = 0
    for d, m in sorted(zip(dists, offers)):
        got += m
        if got >= need:
            return d
    raise SolverInvariantError(f"offers of {got} units cannot cover a need of {need}")


def _singleton_hall_bound(net: _Bipartite) -> float:
    """Largest covering threshold over single atoms of either side."""
    bound = 0.0
    for rows, needs, offers in (
        (net.table, net.supply, net.demand),
        (zip(*net.table), net.demand, net.supply),
    ):
        for row, need in zip(rows, needs):
            bound = _covering_threshold(row, need, offers, bound)
    return bound


def _next_threshold(net: _Bipartite, t: float, violator: list[int]) -> float:
    """Least threshold at which nu's mass within it covers mu's mass on
    ``violator``, a set that violates Hall's condition at t such as the rows
    of a short max flow's min cut: a lower bound on the value above t."""
    table = net.table
    dists = list(map(min, zip(*(table[i] for i in violator))))
    nxt = _covering_threshold(dists, sum(net.supply[i] for i in violator), net.demand, t)
    if not nxt > t:
        raise SolverInvariantError(f"the min cut at threshold {t} violates no Hall condition")
    return nxt


def w_infinity(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveReport:
    """Bottleneck transport value with an optimal plan as witness.

    Every probe is a max flow at a threshold that is a proven lower bound on
    the value, so the first probe that routes all mass is at the value.  The
    chase starts at the singleton-Hall bound, most often the value.  In a
    probe that falls short, the atoms of mu that the max flow's last search
    reached form a set S that violates Hall's condition; the next probe is
    at the least threshold at which nu's mass within it covers mu(S),
    strictly higher and still at most the value.
    ``feasibility_calls`` counts the probes, one max flow each, so it is 1
    when the bound is the value.  The plan is the max flow of the last probe,
    at exactly the optimal threshold.
    """
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    n = len(net.sources)
    t = _singleton_hall_bound(net)
    calls = 1
    value, pairs, flows, reached = _flow_at_threshold(net, t)
    while value != net.total:
        t = _next_threshold(net, t, [i for i in range(n) if reached[1 + i]])
        calls += 1
        value, pairs, flows, reached = _flow_at_threshold(net, t)
    cells = net.cells(pairs, flows[n:])
    return SolveReport(value=t, feasibility_calls=calls, mu=mu, nu=nu, denom=net.denom, cells=cells)


def _units(mu: DiscreteMeasure, denom: int) -> dict:
    """Each atom's mass in whole units of 1/``denom``."""
    units = {}
    for a, w in mu.weights.items():
        units[a], rest = divmod(w.numerator * denom, w.denominator)
        if rest:
            raise SolverInvariantError(f"mass {w} at atom {a} is no whole number of 1/{denom}")
    return units


def certify(mu: DiscreteMeasure, nu: DiscreteMeasure, denom: int, cells) -> SolveReport | None:
    """W-infinity read off a given coupling when single atoms prove it optimal;
    None when they do not.

    ``cells`` are (atom of mu, atom of nu, units of 1/``denom``) triples, such
    as an optimal plan's cells pushed along a map.  They are checked in
    integers as a solver's flow is: nonnegative units that route every atom's
    mass times ``denom`` exactly, or ``SolverInvariantError``.  The coupling
    moves nothing farther than U, the length of its longest cell, so the value
    is at most U.  If an atom on a longest cell has less of the other measure
    strictly within U than its own mass, Hall's condition fails for that atom
    below U, so the value is U, a verbatim entry.  The report then carries
    the coupling as its cells and ``feasibility_calls == 0``: no flow ran.
    """
    _require_comparable(mu, nu)
    supply, demand = _units(mu, denom), _units(nu, denom)
    rows, cols = dict.fromkeys(supply, 0), dict.fromkeys(demand, 0)
    out = []
    for a, b, u in cells:
        if u:
            if u < 0 or a not in rows or b not in cols:
                raise SolverInvariantError(f"{u} units on pair {(a, b)} do not couple the measures")
            rows[a] += u
            cols[b] += u
            out.append((a, b, u))
    if rows != supply or cols != demand:
        raise SolverInvariantError("coupling marginals do not match the scaled masses")
    row = mu.space.row
    lengths = [row(a)[b] for a, b, _ in out]
    longest = max(lengths)
    for (a, b, _), d in zip(out, lengths):
        if d == longest and (
                sum(u for y, u in demand.items() if row(a)[y] < longest) < supply[a]
                or sum(u for x, u in supply.items() if row(x)[b] < longest) < demand[b]):
            return SolveReport(value=longest, feasibility_calls=0, mu=mu, nu=nu,
                               denom=denom, cells=tuple(out))
    return None


def w_infinity_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Independent oracle: smallest t with mu(S) <= nu(N_t(S)) for every S.

    For each subset S of supp(mu) the minimal adequate threshold is found by
    scanning targets in distance order; the answer is the max over subsets.
    This never touches the flow code.
    """
    _require_comparable(mu, nu)
    space = mu.space
    sources = sorted(mu.weights)
    targets = sorted(nu.weights)
    if len(sources) * len(targets) > 36:
        raise TooLarge("bruteforce oracle capped at |supp mu| * |supp nu| <= 36")
    answer = 0.0
    for mask in range(1, 1 << len(sources)):
        subset = [sources[k] for k in range(len(sources)) if mask >> k & 1]
        need = sum((mu.weights[a] for a in subset), start=ZERO)
        reach = sorted(
            (min(space.d(a, b) for a in subset), b) for b in targets
        )
        got = ZERO
        for dist_to_subset, b in reach:
            got += nu.weights[b]
            if got >= need:
                answer = max(answer, dist_to_subset)
                break
        else:
            raise AssertionError("probability measures always cover at max distance")
    return answer


def _power_mean(float_terms, terms, p: int) -> float:
    """(sum of d**p * w) ** (1/p): the compensated float sum of ``float_terms``
    while it stays finite, else exact over the (d, w) ``terms``.

    With masses summing to one the result is at most the largest d, so it is
    finite whenever the distances are, even where d**p overflows.
    """
    try:
        total = math.fsum(float_terms)
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return total ** (1.0 / p)
    exact = Fraction(0)
    for d, w in terms:
        if d == math.inf:
            return math.inf
        exact += Fraction(d) ** p * w
    if p == 1:
        return float(exact)
    # floor(sqrt(exact) * 2**half) carries at least 64 bits before rounding.
    num, den = exact.numerator, exact.denominator
    half = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    return float(Fraction(math.isqrt((num << 2 * half) // den), 1 << half))


def w_p_enumerate(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> float:
    """Exhaustive minimum over the transport polytope's vertices (<= 6x6 supports).

    Every vertex arises from some greedy saturation order (pick a cell, route
    min(row, column) mass, drop the exhausted side), so a memoized recursion
    over residual states covers the whole vertex set.
    """
    if p not in (1, 2):
        raise UnsupportedP(f"p must be 1 or 2, got {p}")
    _require_comparable(mu, nu)
    if len(mu.weights) > 6 or len(nu.weights) > 6:
        raise TooLarge("vertex enumeration capped at 6x6 supports")
    space = mu.space
    costs = {
        (a, b): space.d(a, b) ** p for a in mu.weights for b in nu.weights
    }

    @lru_cache(maxsize=None)
    def best(rows, cols) -> float:
        if not rows:
            return 0.0
        out = math.inf
        for ri, (a, ra) in enumerate(rows):
            for ci, (b, rb) in enumerate(cols):
                moved = min(ra, rb)
                if ra <= rb:
                    nrows = rows[:ri] + rows[ri + 1:]
                    left = rb - ra
                    ncols = (
                        cols[:ci] + ((b, left),) + cols[ci + 1:]
                        if left else cols[:ci] + cols[ci + 1:]
                    )
                else:
                    ncols = cols[:ci] + cols[ci + 1:]
                    nrows = rows[:ri] + ((a, ra - rb),) + rows[ri + 1:]
                out = min(out, costs[(a, b)] * float(moved) + best(nrows, ncols))
        return out

    rows = tuple(sorted(mu.weights.items()))
    cols = tuple(sorted(nu.weights.items()))
    return best(rows, cols) ** (1.0 / p)


def _w_p_solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int):
    """(value, denom, checked cells) of the simplex's optimal flow; the cells
    are None when the value is infinite."""
    if p not in (1, 2):
        raise UnsupportedP(f"p must be 1 or 2, got {p}")
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    distances = [d for row in net.table for d in row]
    value, flows = min_cost_max_flow(net.supply, distances, net.demand, p)
    if value != net.total:
        raise SolverInvariantError(
            f"transportation simplex routed {value} of {net.total} units of 1/{net.denom}")
    items = sorted(flows.items())
    cells = net.cells([divmod(k, len(net.targets)) for k, _ in items], [f for _, f in items])
    if any(distances[k] == math.inf for k, _ in items):
        return math.inf, net.denom, None  # the rest of the mass can only cross an infinite distance
    cost = _power_mean(
        (distances[k] ** p * f / net.denom for k, f in items),
        ((distances[k], Fraction(f, net.denom)) for k, f in items),
        p,
    )
    return cost, net.denom, cells


def w_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> float:
    """p-Wasserstein distance for p in {1, 2}: exact masses and integer costs,
    by the transportation simplex (``w_p_enumerate`` is the independent oracle).
    The simplex's flow is checked in integers, and no plan is built."""
    return _w_p_solve(mu, nu, p)[0]


def w_p_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int):
    """Like ``w_p`` but also returns the optimal plan found by the simplex.

    When every coupling moves mass across an infinite distance the value is
    infinite and the plan is None.
    """
    value, denom, cells = _w_p_solve(mu, nu, p)
    return value, None if cells is None else _plan(mu, nu, denom, cells)
