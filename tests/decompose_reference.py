"""Rebuild-per-step reference for `decomposition.decompose`.

The construction's step loop as it was when every step that reads slacks
built its table from scratch with `decomposition._slack_table`, and found
epsilon_0 by a scan of the whole table.  The tests compare `decompose`,
which carries one table through the worklist, against it on every instance.
"""
from __future__ import annotations

from fractions import Fraction

from bottleneck_ot.decomposition import (
    DecompositionResult,
    _indices,
    _masks_in_order,
    _slack_table,
)
from bottleneck_ot.measures import ZERO, make_measure


def epsilon_zero_scan(slack, psi: int, p: int):
    """Least slack over the masks that meet psi but avoid p, by a full scan."""
    bit = 1 << p
    return min((s for mask, s in enumerate(slack) if mask & psi and not mask & bit), default=None)


def decompose_rebuilding(instance) -> DecompositionResult:
    """The inductive construction with one `_slack_table` per Case 1/Case 3 step.

    The instance must be feasible; the caller checks that first.
    """
    sets = instance.sets
    parts: list = [{} for _ in sets]
    trace: list = []
    max_depth = 0
    stack = [(dict(instance.xi.weights), tuple(range(instance.m)), instance.targets, 0)]
    while stack:
        weights, idx, targets, depth = stack.pop()
        max_depth = max(max_depth, depth)
        m = len(idx)
        if m == 1:
            trace.append(("Base", depth))
            part = parts[idx[0]]
            for a, w in weights.items():
                part[a] = part.get(a, ZERO) + w
            continue
        if 0 in targets:
            k = targets.index(0)
            trace.append(("Case2", depth))
            stack.append((weights, idx[:k] + idx[k + 1:], targets[:k] + targets[k + 1:], depth + 1))
            continue
        den, cells, slack = _slack_table(weights, [sets[j] for j in idx], targets)
        if 0 in slack[1:-1]:
            tight = next(mask for mask in _masks_in_order(m) if slack[mask] == 0)
            trace.append(("Case1", depth))
            members = _indices(tight)
            rest = tuple(i for i in range(m) if not tight >> i & 1)
            inside = frozenset().union(*(sets[idx[i]] for i in members))
            w_in, w_out = {}, {}
            for a, w in weights.items():
                (w_in if a in inside else w_out)[a] = w
            for keep, w in ((rest, w_out), (members, w_in)):
                stack.append((w, tuple(idx[i] for i in keep), tuple(targets[i] for i in keep), depth + 1))
            continue
        psi = min(cells)
        cell_mass, cell_atoms = cells[psi]
        p = (psi & -psi).bit_length() - 1
        eps_zero = epsilon_zero_scan(slack, psi, p)
        target = targets[p].numerator * (den // targets[p].denominator)
        eps = min(e for e in (eps_zero, target, cell_mass) if e is not None)
        assert eps > 0
        if eps == eps_zero:
            label = "Case3.1"
        elif eps == target:
            label = "Case3.2"
        else:
            label = "Case3.3"
        trace.append((label, depth))
        share = Fraction(eps, cell_mass)
        part = parts[idx[p]]
        reduced = dict(weights)
        for a in cell_atoms:
            piece = weights[a] * share
            part[a] = part.get(a, ZERO) + piece
            if weights[a] > piece:
                reduced[a] = weights[a] - piece
            else:
                del reduced[a]
        reduced_targets = targets[:p] + (targets[p] - Fraction(eps, den),) + targets[p + 1:]
        stack.append((reduced, idx, reduced_targets, depth + 1))
    components = tuple(make_measure(instance.xi.space, part.items()) for part in parts)
    return DecompositionResult(components, tuple(trace), max_depth)
