"""Exact network flows on integer capacities.

Each solve scales its masses to integers once, by their common denominator
(``scale_masses``), and builds every network from those integers; no flow
routine sees a ``Fraction``.  ``max_flow`` is Dinic's algorithm; it also
returns the nodes that its last search reached, the source side of a minimum
cut (Ford & Fulkerson 1956).  On ``bipartite_network``, the one network of
the package's Hall questions, the rows of a short flow's cut supply more than
the columns paired with them demand.

``min_cost_max_flow`` solves the transportation problem, the min-cost max
flow of a complete bipartite network, by the primal transportation simplex
(Dantzig 1951).  It keeps its name because a balanced transportation plan is
exactly a min-cost max flow from the supplies to the demands, and the W1/W2
solvers and the benchmark's timing span call it by that name.

- Costs are d**p mapped exactly to integers: a float d is P / 2**k, so all
  costs share the scale 2**(p * max k).  A cell at infinite distance costs a
  big M, more than max finite cost * total units, so an optimal plan puts mass
  there only when no finite coupling exists.
- The supplies are perturbed (Charnes 1952; Orden 1956): row i offers
  (2n + 1) a_i + 1 and the last column takes n more.  No proper subsets of
  rows and columns then balance, so every basis is nondegenerate: the
  least-cost start yields a spanning tree by itself (its cells of zero true
  flow are the ones that complete it), every pivot lowers the perturbed cost
  strictly, no basis repeats and the simplex cannot cycle.  A basic cell's
  perturbed flow is (2n + 1) x + s with |s| <= n, so its true flow x is
  (flow + n) // (2n + 1); reduced costs do not depend on the supplies, so the
  last basis is optimal for the true supplies as well.
- Potentials are integer MODI potentials (u_i + v_j = c_ij on the tree);
  after a pivot only the subtree that moved is hung again.  Pricing is
  partial: rows are priced one at a time, round-robin, by
  ``min(map(sub, row, v))``; the first row holding a negative reduced cost
  enters its most negative cell.  The solve ends only when a full round over
  all rows finds none, which is the optimality condition itself.
- The value of a plan is left to the caller, as a compensated float sum over
  the plan's cells: the integer costs decide which plan is optimal, exactly,
  and the float sum reproduces d**p * mass as the caller reads it.
"""
from __future__ import annotations

from math import inf, lcm
from operator import sub

from .errors import SolverInvariantError


def scale_masses(*groups):
    """Common denominator of all masses, and each group's masses times it.

    Each group is a sequence of nonnegative rationals; returns
    ``(denom, [[int, ...], ...])`` with the groups in the order given.
    """
    denom = 1
    for group in groups:
        for w in group:
            denom = lcm(denom, w.denominator)
    return denom, [[w.numerator * (denom // w.denominator) for w in group] for group in groups]


def _residual(n_nodes: int, edges):
    """Adjacency lists, heads and capacities; edge k is 2k, its reverse 2k + 1."""
    head: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[int] = []
    for k, (u, v, c) in enumerate(edges):
        head[u].append(2 * k)
        head[v].append(2 * k + 1)
        to += (v, u)
        cap += (c, 0)
    return head, to, cap


def bipartite_network(supply, demand, pairs):
    """``max_flow``'s arguments (n_nodes, edges, source, sink) for the network
    source -> rows -> columns -> sink, with n rows and m columns.

    Nodes: 0 is the source, 1 + i row i, 1 + n + j column j, 1 + n + m the
    sink.  Edges: i < n is source -> row i of capacity ``supply[i]``, n + k
    is the pair ``pairs[k]`` = (i, j) with room for the whole supply, and
    n + len(pairs) + j is column j -> sink of capacity ``demand[j]``.
    """
    n, m = len(supply), len(demand)
    sink = 1 + n + m
    total = sum(supply)
    edges = [(0, 1 + i, s) for i, s in enumerate(supply)]
    edges += [(1 + i, 1 + n + j, total) for i, j in pairs]
    edges += [(1 + n + j, sink, d) for j, d in enumerate(demand)]
    return sink + 1, edges, 0, sink


def max_flow(n_nodes: int, edges, source: int, sink: int):
    """Exact max flow by Dinic's algorithm.

    ``edges`` is a sequence of (u, v, capacity) with nonnegative integer
    capacities.  Returns (value, flows, reached) where ``flows[k]`` is the
    flow on edge k and ``reached[v]`` tells whether the last search, the one
    that found no path to the sink, reached node v.  The reached nodes are
    the source side of a minimum cut: the capacity of the edges leaving them
    is the value.
    """
    head, to, cap = _residual(n_nodes, edges)
    value = 0
    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            next_level = level[u] + 1
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            return value, cap[1::2], [depth >= 0 for depth in level]
        # Blocking flow: walk the level graph along each node's current arc,
        # retreat from dead ends, augment at the sink, then resume at the tail
        # of the first saturated edge (where a restart would arrive).
        it = [0] * n_nodes
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                cut = len(path)
                for k, e in enumerate(path):
                    cap[e] -= push
                    cap[e ^ 1] += push
                    if cap[e] == 0 and k < cut:
                        cut = k
                del path[cut:]
                value += push
                u = to[path[-1]] if path else source
                continue
            arcs = head[u]
            i = it[u]
            want = level[u] + 1
            n_arcs = len(arcs)
            while i < n_arcs:
                e = arcs[i]
                if cap[e] > 0 and level[to[e]] == want:
                    break
                i += 1
            it[u] = i
            if i < n_arcs:
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def _integer_costs(distances, p: int, units: int) -> list[int]:
    """Each d**p times the least power of two making all integers; big M where d = inf."""
    ratios = [d.as_integer_ratio() for d in distances if d < inf]
    scale = max(q for _, q in ratios) if ratios else 1
    costs = [(a * (scale // q)) ** p for a, q in ratios]
    if len(costs) < len(distances):
        big = max(costs, default=0) * units + 1
        finite = iter(costs)
        costs = [next(finite) if d < inf else big for d in distances]
    return costs


def min_cost_max_flow(supply, distances, demand, p: int = 1):
    """Least-cost transportation plan by the primal transportation simplex.

    ``supply`` (n rows) and ``demand`` (m columns) are positive integers with
    equal sums; ``distances`` holds the n * m cell distances row by row, and
    a unit on cell k costs ``distances[k] ** p``, exactly.  Returns (units
    routed, flows) where ``flows`` maps each cell k = i * m + j that carries
    flow to its units; the plan has least cost exactly.  Cells at infinite
    distance carry flow only when every plan needs them.
    """
    n, m = len(supply), len(demand)
    if min(supply) <= 0 or min(demand) <= 0 or sum(supply) != sum(demand):
        raise ValueError("supplies and demands must be positive, with equal sums")
    cost = _integer_costs(distances, p, sum(supply))
    rows = [cost[k:k + m] for k in range(0, n * m, m)]
    scale = 2 * n + 1
    offer = [scale * a + 1 for a in supply]
    take = [scale * b for b in demand]
    take[-1] += n
    # Least-cost start.  Nodes are rows 0..n-1 and columns n..n+m-1; a tree
    # edge is a basic cell, keyed (i, j), with its perturbed flow.
    flow: dict = {}
    adj: list[set] = [set() for _ in range(n + m)]
    for k in sorted(range(n * m), key=cost.__getitem__):
        i, j = divmod(k, m)
        if offer[i] and take[j]:
            x = min(offer[i], take[j])
            offer[i] -= x
            take[j] -= x
            flow[i, j] = x
            adj[i].add(n + j)
            adj[n + j].add(i)
            if len(flow) == n + m - 1:
                break
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0] * (n + m)

    def hang(top: int, above: int) -> None:
        """Parents, depths and potentials of ``top``'s subtree, hung below ``above``."""
        parent[top] = above
        if above >= 0:
            depth[top] = depth[above] + 1
            c = rows[top][above - n] if top < n else rows[above][top - n]
            pot[top] = c - pot[above]
        stack = [top]
        while stack:
            x = stack.pop()
            up, d, px = parent[x], depth[x] + 1, pot[x]
            for y in adj[x]:
                if y != up:
                    parent[y] = x
                    depth[y] = d
                    pot[y] = (rows[x][y - n] if x < n else rows[y][x - n]) - px
                    stack.append(y)

    hang(0, -1)

    def cell(c: int):
        """The basic cell joining node c to its parent."""
        return (c, parent[c] - n) if c < n else (parent[c], c - n)

    i = 0
    while True:
        # Partial pricing: scan the rows round-robin from where the last scan
        # stopped; the first row with a negative reduced cost c_ij - u_i - v_j
        # enters its most negative cell.
        v = pot[n:]
        for _ in range(n):
            a = i
            i = i + 1 if i + 1 < n else 0
            best = min(map(sub, rows[a], v)) - pot[a]
            if best < 0:
                break
        else:
            break  # a full scan found no negative reduced cost: the plan is optimal
        b = n + list(map(sub, rows[a], v)).index(best + pot[a])
        # The entering cell (a, b) closes a cycle through the two climbs to the
        # common ancestor.  Round the cycle the entering cell gains flow and the
        # edges alternate: a row on a's climb or a column on b's climb loses.
        climb_a, climb_b = [], []
        x, y = a, b
        while x != y:
            if depth[x] >= depth[y]:
                climb_a.append(x)
                x = parent[x]
            else:
                climb_b.append(y)
                y = parent[y]
        lose = [c for c in climb_a if c < n] + [c for c in climb_b if c >= n]
        out = min(lose, key=lambda c: flow[cell(c)])
        theta = flow.pop(cell(out))
        for c in climb_a:
            if c != out:
                flow[cell(c)] += -theta if c < n else theta
        for c in climb_b:
            if c != out:
                flow[cell(c)] += theta if c < n else -theta
        flow[a, b - n] = theta
        up = parent[out]
        adj[out].discard(up)
        adj[up].discard(out)
        adj[a].add(b)
        adj[b].add(a)
        # The subtree below the leaving edge holds one end of the entering
        # cell: hang it again from there.
        if out in climb_a:
            hang(a, b)
        else:
            hang(b, a)
    routed, flows = 0, {}
    for (i, j), x in flow.items():
        units = (x + n) // scale
        if units:
            routed += units
            flows[i * m + j] = units
    if not _is_plan(flows, supply, demand):
        raise SolverInvariantError("transportation simplex ended on a plan with wrong marginals")
    return routed, flows


def _is_plan(flows: dict, supply, demand) -> bool:
    """True iff every cell flow is positive and rows and columns sum to the supplies and demands."""
    m = len(demand)
    rows, cols = [0] * len(supply), [0] * m
    for k, units in flows.items():
        i, j = divmod(k, m)
        rows[i] += units
        cols[j] += units
    return rows == list(supply) and cols == list(demand) and min(flows.values()) > 0
