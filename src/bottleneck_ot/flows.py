"""Exact network flows on integer capacities.

Each solve scales its masses to integers once, by their common denominator
(``scale_masses``), and builds every network from those integers; no flow
routine sees a ``Fraction``.  ``max_flow`` is Dinic's algorithm.
``min_cost_max_flow`` is successive shortest paths: Dijkstra on a heap with
Johnson potentials (Edmonds & Karp 1972), each search stopping once it settles
the sink.  Float costs are mapped exactly to integers under one power-of-two
scale, so reduced costs never turn negative through rounding.
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import lcm


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
    for k, (u, v, c, *_) in enumerate(edges):
        head[u].append(2 * k)
        head[v].append(2 * k + 1)
        to += (v, u)
        cap += (c, 0)
    return head, to, cap


def max_flow(n_nodes: int, edges, source: int, sink: int):
    """Exact max flow by Dinic's algorithm.

    ``edges`` is a sequence of (u, v, capacity) with nonnegative integer
    capacities.  Returns (value, flows) where ``flows[k]`` is the flow on
    edge k.
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
            return value, cap[1::2]
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



def _integer_costs(costs) -> list[int]:
    """Each float cost c as (c * 2**k, -c * 2**k), for the least k making all integers."""
    shift = max((float(c).as_integer_ratio()[1].bit_length() for c in costs), default=1)
    out: list[int] = []
    for c in costs:
        p, q = float(c).as_integer_ratio()
        p <<= shift - q.bit_length()
        out += (p, -p)
    return out


def min_cost_max_flow(n_nodes: int, edges, source: int, sink: int):
    """Min-cost max flow by successive shortest paths.

    ``edges`` is a sequence of (u, v, capacity, cost) with nonnegative integer
    capacities and nonnegative float costs.  Returns (value, flows) where
    ``flows[k]`` is the flow on edge k; the flow has least cost exactly, for
    the costs as given.
    """
    head, to, cap = _residual(n_nodes, edges)
    cost = _integer_costs([edge[3] for edge in edges])
    # All costs are nonnegative, so zero potentials start the reduced costs
    # nonnegative; the update after each search keeps them so.
    potential = [0] * n_nodes
    value = 0
    while True:
        dist: list = [None] * n_nodes
        settled = [False] * n_nodes
        via = [-1] * n_nodes
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == sink:
                break
            base = d + potential[u]
            for e in head[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = base + cost[e] - potential[v]
                    dv = dist[v]
                    if dv is None or nd < dv:
                        dist[v] = nd
                        via[v] = e
                        heappush(heap, (nd, v))
        if not settled[sink]:
            return value, cap[1::2]
        # Nodes the search did not settle lie at least as far as the sink.
        reach = dist[sink]
        for v in range(n_nodes):
            potential[v] += dist[v] if settled[v] else reach
        push = None
        v = sink
        while v != source:
            e = via[v]
            push = cap[e] if push is None else min(push, cap[e])
            v = to[e ^ 1]
        v = sink
        while v != source:
            e = via[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = to[e ^ 1]
        value += push
