"""Exact bottleneck (infinity-Wasserstein) transport plus W1/W2 comparison solvers.

The bottleneck value between finitely supported probability measures is the
smallest threshold t, among the pairwise support distances, at which a coupling
confined to pairs within distance t exists.  Feasibility is an exact max-flow
question with rational capacities, so the returned value is always a verbatim
entry of the distance matrix (or 0) and never a rounded quantity.  The search
over thresholds starts at the singleton-Hall bound (Hall 1935; Gale 1957):
below it a single atom's mass cannot be covered, and it is most often the
value, so most solves take one max flow.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotProbability, SolverInvariantError, SpaceMismatch, TooLarge, UnsupportedP
from .flows import max_flow, min_cost_max_flow, scale_masses
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


@dataclass(frozen=True)
class SolveReport:
    value: float
    plan: TransportPlan
    thresholds_tested: int
    feasibility_calls: int


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
    ``targets[j]``.  Node 0 is the source, then mu's atoms, nu's atoms, the sink.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.sources, self.targets = sorted(mu.weights), sorted(nu.weights)
        self.denom, (self.supply, self.demand) = scale_masses(
            [mu.weights[a] for a in self.sources], [nu.weights[b] for b in self.targets]
        )
        self.total = sum(self.supply)
        self.sink = 1 + len(self.sources) + len(self.targets)
        rows = map(mu.space.row, self.sources)
        self.table = [[row[b] for b in self.targets] for row in rows]

    def edges(self, pairs):
        """Supply edges, an uncapacitated edge per (i, j) pair, demand edges."""
        n, sink, total = len(self.sources), self.sink, self.total
        return (
            [(0, 1 + i, s) for i, s in enumerate(self.supply)]
            + [(1 + i, 1 + n + j, total) for i, j in pairs]
            + [(1 + n + j, sink, d) for j, d in enumerate(self.demand)]
        )

    def entries(self, pairs, units) -> tuple:
        """Plan entries, in the order given, of the (i, j) pairs whose units are nonzero."""
        denom = self.denom
        return tuple(
            (self.sources[i], self.targets[j], Fraction(f, denom))
            for (i, j), f in zip(pairs, units)
            if f
        )


def _flow_at_threshold(net: _Bipartite, t: float):
    """Exact max flow on the pairs with d <= t: (value, pairs, edge flows)."""
    pairs = [
        (i, j) for i, row in enumerate(net.table) for j, d in enumerate(row) if d <= t
    ]
    value, flows = max_flow(net.sink + 1, net.edges(pairs), 0, net.sink)
    return value, pairs, flows


def _check_saturated(value: int, net: _Bipartite, what: str) -> None:
    if value != net.total:
        raise SolverInvariantError(f"{what} routed {value} of {net.total} units of 1/{net.denom}")


def feasible_at_threshold(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> bool:
    """True iff a coupling supported on pairs with d(i, j) <= t exists."""
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    value, _, _ = _flow_at_threshold(net, t)
    return value == net.total


def candidate_thresholds(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[float]:
    """Sorted distinct pairwise distances between the two supports, plus 0."""
    return sorted({0.0}.union(*_Bipartite(mu, nu).table))


def _singleton_hall_bound(net: _Bipartite) -> float:
    """Largest, over single atoms of either side, of the least threshold at
    which the other side's mass within it covers the atom's mass.

    Below it one atom violates Hall's condition, so no coupling exists; it is
    a table entry (or 0).  A row whose mass is already covered within the
    running maximum cannot raise it and is not sorted.
    """
    bound = 0.0
    for rows, needs, offers in (
        (net.table, net.supply, net.demand),
        (zip(*net.table), net.demand, net.supply),
    ):
        for row, need in zip(rows, needs):
            if sum(m for d, m in zip(row, offers) if d <= bound) >= need:
                continue
            got = 0
            for d, m in sorted(zip(row, offers)):
                got += m
                if got >= need:
                    bound = d
                    break
    return bound


def w_infinity(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveReport:
    """Bottleneck transport value with an optimal plan as witness.

    Binary search over the sorted distinct distances: feasibility is monotone
    in the threshold and the optimum is attained at a matrix entry.  The
    search starts at the singleton-Hall bound, which it probes first because
    it is most often the value; ``feasibility_calls`` counts the probes from
    there, so it is 1 when the bound is the value.  Masses and distances are
    read once; each probe builds its network from them.  The plan is always
    the max flow at exactly the optimal threshold.
    """
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    thresholds = sorted({0.0}.union(*net.table))
    lo, hi = bisect_left(thresholds, _singleton_hall_bound(net)), len(thresholds) - 1
    mid = lo
    calls = 0
    witness = None  # (pairs, flows) of the smallest feasible threshold probed
    # The largest threshold admits the full bipartite graph and is always
    # feasible for probability measures, so the search space is never empty.
    while lo < hi:
        value, pairs, flows = _flow_at_threshold(net, thresholds[mid])
        calls += 1
        if value == net.total:
            hi = mid
            witness = pairs, flows[len(net.sources):]
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    if witness is None:  # only the largest threshold is left, and it was not probed
        value, pairs, flows = _flow_at_threshold(net, thresholds[lo])
        calls += 1
        _check_saturated(value, net, "max flow at the largest threshold")
        witness = pairs, flows[len(net.sources):]
    plan = TransportPlan(mu, nu, net.entries(*witness))
    return SolveReport(
        value=thresholds[lo],
        plan=plan,
        thresholds_tested=len(thresholds),
        feasibility_calls=calls,
    )


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


def w_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> float:
    """p-Wasserstein distance for p in {1, 2}: exact masses and integer costs,
    by the transportation simplex (``w_p_enumerate`` is the independent oracle)."""
    return w_p_plan(mu, nu, p)[0]


def w_p_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int):
    """Like ``w_p`` but also returns the optimal plan found by the simplex.

    When every coupling moves mass across an infinite distance the value is
    infinite and the plan is None.
    """
    if p not in (1, 2):
        raise UnsupportedP(f"p must be 1 or 2, got {p}")
    _require_comparable(mu, nu)
    net = _Bipartite(mu, nu)
    distances = [d for row in net.table for d in row]
    value, flows = min_cost_max_flow(net.supply, distances, net.demand, p)
    _check_saturated(value, net, "transportation simplex")
    cells = sorted(flows.items())
    if any(distances[k] == math.inf for k, _ in cells):
        return math.inf, None  # the rest of the mass can only cross an infinite distance
    cost = _power_mean(
        (distances[k] ** p * f / net.denom for k, f in cells),
        ((distances[k], Fraction(f, net.denom)) for k, f in cells),
        p,
    )
    pairs = [divmod(k, len(net.targets)) for k, _ in cells]
    return cost, TransportPlan(mu, nu, net.entries(pairs, [f for _, f in cells]))
