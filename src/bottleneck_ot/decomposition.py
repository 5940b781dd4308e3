"""Constructive decomposition of a measure along a feasible family of sets.

Given an unnormalized measure xi, sets B_1..B_m and nonnegative targets
x_1..x_m satisfying the Hall-type feasibility conditions

    subset-bound:  xi(union of B_i over any index subset) >= sum of those x_i,
    total-mass:    xi(X) = x_1 + ... + x_m,

produce component measures nu_1..nu_m with

    support:         nu_i vanishes outside B_i,
    component-mass:  nu_i(X) = x_i,
    atomwise-sum:    nu_1 + ... + nu_m = xi atom by atom.

The construction is inductive with three branches: split on a tight subset
(Case1), drop a zero target (Case2), or shave a proportional slice off an
occupied intersection cell and charge it to one target (Case3, sub-labeled by
which bound the slice size hits).  All arithmetic is exact rationals, so the
output satisfies the three conclusions without tolerance.  Termination is
measured by the arrangement rho: the number of occupied intersection cells,
at most 2^m - 1.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CasePreconditionViolated, InfeasibleInstance, TooManySets
from .flows import max_flow, scale_masses
from .measures import ZERO, DiscreteMeasure, as_fraction, make_measure

FEASIBILITY_CAP = 14
DECOMPOSE_CAP = 12


@dataclass(frozen=True)
class DecompositionInstance:
    xi: DiscreteMeasure
    sets: tuple  # tuple of frozensets of atom indices
    targets: tuple  # tuple of Fractions

    @classmethod
    def build(cls, xi: DiscreteMeasure, sets, targets) -> "DecompositionInstance":
        sets = tuple(frozenset(xi.space.check_atom(a) for a in s) for s in sets)
        targets = tuple(as_fraction(t) for t in targets)
        if len(sets) != len(targets) or not sets:
            raise ValueError("need m >= 1 sets with matching targets")
        if any(t < 0 for t in targets):
            raise ValueError("targets must be nonnegative")
        return cls(xi, sets, targets)

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    condition: str | None = None  # "subset-bound" | "total-mass"
    subset: tuple | None = None  # 0-based set indices of the witness
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __str__(self):
        if self.feasible:
            return "Feasible"
        return (
            f"Infeasible({self.condition}, subset={self.subset}, "
            f"lhs={self.lhs}, rhs={self.rhs})"
        )


@dataclass(frozen=True)
class DecompositionResult:
    components: tuple  # tuple of DiscreteMeasures
    trace: tuple  # ((label, depth), ...)
    max_depth: int


@dataclass(frozen=True)
class VerificationVerdict:
    valid: bool
    condition: str | None = None  # first violated: "support" | "component-mass" | "atomwise-sum"
    index: int | None = None  # component index, or atom index for atomwise-sum failures

    def __str__(self):
        if self.valid:
            return "Valid"
        return f"Violation({self.condition}, i={self.index})"


def _union_mass(weights: dict, sets, indices) -> Fraction:
    union = set()
    for i in indices:
        union |= sets[i]
    return sum((weights[a] for a in union if a in weights), start=ZERO)


def _subsets_in_order(m: int, proper_only: bool = False):
    """Nonempty index subsets ordered by cardinality, then lexicographically."""
    top = m - 1 if proper_only else m
    for size in range(1, top + 1):
        yield from combinations(range(m), size)


def check_feasibility(instance: DecompositionInstance) -> FeasibilityVerdict:
    """Exhaustive subset-bound and total-mass check; the witness is the first failing subset."""
    m = instance.m
    if m > FEASIBILITY_CAP:
        raise TooManySets(f"feasibility check capped at m <= {FEASIBILITY_CAP}")
    weights = dict(instance.xi.weights)
    total_targets = sum(instance.targets, start=ZERO)
    if instance.xi.total_mass != total_targets:
        return FeasibilityVerdict(
            False, "total-mass", tuple(range(m)), instance.xi.total_mass, total_targets
        )
    for subset in _subsets_in_order(m):
        lhs = _union_mass(weights, instance.sets, subset)
        rhs = sum((instance.targets[i] for i in subset), start=ZERO)
        if lhs < rhs:
            return FeasibilityVerdict(False, "subset-bound", subset, lhs, rhs)
    return FeasibilityVerdict(True)


def feasibility_by_flow(instance: DecompositionInstance) -> bool:
    """Independent oracle: targets route through a set-to-atom bipartite graph.

    Set node i supplies x_i, atom a absorbs xi({a}), and an uncapacitated
    edge i -> a exists iff a in B_i.
    The Hall conditions hold iff the max flow saturates every supply and the
    totals agree.
    """
    m = instance.m
    weights = instance.xi.weights
    atoms = sorted(weights)
    if instance.xi.total_mass != sum(instance.targets, start=ZERO):
        return False
    _, (supply, demand) = scale_masses(instance.targets, [weights[a] for a in atoms])
    total = sum(supply)
    atom_pos = {a: 1 + m + k for k, a in enumerate(atoms)}
    sink = 1 + m + len(atoms)
    edges = []
    for i in range(m):
        edges.append((0, 1 + i, supply[i]))
        for a in instance.sets[i]:
            if a in atom_pos:
                edges.append((1 + i, atom_pos[a], total))
    for a, d in zip(atoms, demand):
        edges.append((atom_pos[a], sink, d))
    value, _ = max_flow(sink + 1, edges, 0, sink)
    return value == total


def arrangement(instance: DecompositionInstance):
    """Count occupied intersection cells: rho and its per-cardinality breakdown.

    The cell of an atom is the index set of the B_i containing it; occupied
    cells are the distinct nonempty cells carrying positive mass.  Walking the
    atoms replaces the 2^m cell enumeration but counts the same thing, so
    rho <= 2^m - 1 holds by construction.
    """
    m = instance.m
    if m > FEASIBILITY_CAP:
        raise TooManySets(f"arrangement capped at m <= {FEASIBILITY_CAP}")
    cells = _occupied_cells(dict(instance.xi.weights), instance.sets)
    per_k = [0] * (m + 1)
    for mask in cells:
        per_k[bin(mask).count("1")] += 1
    rho = sum(per_k[1:])
    return rho, tuple(per_k[1:])


def _occupied_cells(weights: dict, sets) -> dict:
    """mask -> (cell mass, sorted cell atoms) for nonempty-index occupied cells."""
    cells: dict[int, list] = {}
    for a, w in weights.items():
        mask = 0
        for i, block in enumerate(sets):
            if a in block:
                mask |= 1 << i
        if mask:
            entry = cells.setdefault(mask, [ZERO, []])
            entry[0] += w
            entry[1].append(a)
    return {
        mask: (mass, tuple(sorted(atoms)))
        for mask, (mass, atoms) in cells.items()
        if mass > 0
    }


def _slacks(weights: dict, sets, targets):
    """Slack of every proper nonempty subset, in deterministic order."""
    m = len(sets)
    out = []
    for subset in _subsets_in_order(m, proper_only=True):
        lhs = _union_mass(weights, sets, subset)
        rhs = sum((targets[i] for i in subset), start=ZERO)
        out.append((subset, lhs - rhs))
    return out


def epsilon_zero(instance: DecompositionInstance, psi, p: int):
    """Largest mass removable from cell psi (charged to target p) keeping every subset bound.

    Only proper subsets that meet psi but avoid p lose slack under the
    subtraction, so epsilon_0 is the minimum of their slacks; returns None
    (unbounded) when no such subset exists.
    """
    psi = frozenset(psi)
    if p not in psi:
        raise ValueError("p must belong to psi")
    weights = dict(instance.xi.weights)
    if any(t <= 0 for t in instance.targets):
        raise CasePreconditionViolated("Case 3 needs strictly positive targets")
    for subset, slack in _slacks(weights, instance.sets, instance.targets):
        if slack <= 0:
            raise CasePreconditionViolated(
                f"Case 3 needs strict inequalities; subset {subset} is tight"
            )
    candidates = [
        slack
        for subset, slack in _slacks(weights, instance.sets, instance.targets)
        if psi & set(subset) and p not in subset
    ]
    return min(candidates) if candidates else None


def decompose(instance: DecompositionInstance) -> DecompositionResult:
    """Run the inductive construction; exact arithmetic end to end."""
    if instance.m > DECOMPOSE_CAP:
        raise TooManySets(f"decompose capped at m <= {DECOMPOSE_CAP}")
    verdict = check_feasibility(instance)
    if not verdict.feasible:
        raise InfeasibleInstance(verdict)
    trace: list = []
    state = {"max_depth": 0}
    weights = dict(instance.xi.weights)
    # Cell-removal chains can nest up to the arrangement bound per set count.
    depth_bound = (2 ** instance.m - 1) * instance.m
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10 * depth_bound + 1000))
    try:
        parts = _decompose_rec(weights, instance.sets, instance.targets, 0, trace, state)
    finally:
        sys.setrecursionlimit(old_limit)
    components = tuple(
        make_measure(instance.xi.space, part.items()) for part in parts
    )
    return DecompositionResult(components, tuple(trace), state["max_depth"])


def _decompose_rec(weights: dict, sets, targets, depth: int, trace: list, state: dict):
    state["max_depth"] = max(state["max_depth"], depth)
    m = len(sets)

    if m == 1:
        trace.append(("Base", depth))
        return [dict(weights)]

    # Case 2: a zero target contributes an empty component.
    for k, t in enumerate(targets):
        if t == 0:
            trace.append(("Case2", depth))
            reduced = _decompose_rec(
                weights, sets[:k] + sets[k + 1:], targets[:k] + targets[k + 1:],
                depth + 1, trace, state,
            )
            return reduced[:k] + [{}] + reduced[k:]

    # Case 1: a tight proper subset splits the instance in two.
    tight = None
    for subset in _subsets_in_order(m, proper_only=True):
        lhs = _union_mass(weights, sets, subset)
        rhs = sum((targets[i] for i in subset), start=ZERO)
        if lhs == rhs:
            tight = subset
            break
    if tight is not None:
        trace.append(("Case1", depth))
        inside = set()
        for i in tight:
            inside |= sets[i]
        rest = [j for j in range(m) if j not in tight]
        w_in = {a: w for a, w in weights.items() if a in inside}
        w_out = {a: w for a, w in weights.items() if a not in inside}
        parts_in = _decompose_rec(
            w_in,
            tuple(sets[i] for i in tight),
            tuple(targets[i] for i in tight),
            depth + 1, trace, state,
        )
        parts_out = _decompose_rec(
            w_out,
            tuple(sets[j] - inside for j in rest),
            tuple(targets[j] for j in rest),
            depth + 1, trace, state,
        )
        merged: list = [None] * m
        for pos, i in enumerate(tight):
            merged[i] = parts_in[pos]
        for pos, j in enumerate(rest):
            merged[j] = parts_out[pos]
        return merged

    # Case 3: strict slack everywhere and positive targets; shave an
    # epsilon-slice off the lexicographically smallest occupied cell.
    cells = _occupied_cells(weights, sets)
    assert cells, "positive targets with matching total mass force an occupied cell"
    psi_mask = min(cells)
    cell_mass, cell_atoms = cells[psi_mask]
    psi = frozenset(i for i in range(m) if psi_mask >> i & 1)
    p = min(psi)

    candidates = [
        slack
        for subset, slack in _slacks(weights, sets, targets)
        if psi & set(subset) and p not in subset
    ]
    eps_zero = min(candidates) if candidates else None
    eps = min(
        [e for e in (eps_zero, targets[p], cell_mass) if e is not None]
    )
    assert eps > 0
    if eps == eps_zero:
        label = "Case3.1"
    elif eps == targets[p]:
        label = "Case3.2"
    else:
        label = "Case3.3"
    trace.append((label, depth))

    scale = eps / cell_mass
    slice_weights = {a: weights[a] * scale for a in cell_atoms}
    reduced_weights = {}
    for a, w in weights.items():
        left = w - slice_weights.get(a, ZERO)
        if left > 0:
            reduced_weights[a] = left
    reduced_targets = tuple(
        t - eps if i == p else t for i, t in enumerate(targets)
    )
    parts = _decompose_rec(reduced_weights, sets, reduced_targets, depth + 1, trace, state)
    for a, w in slice_weights.items():
        parts[p][a] = parts[p].get(a, ZERO) + w
    return parts


def verify_decomposition(instance: DecompositionInstance, result: DecompositionResult) -> VerificationVerdict:
    """Exact check of support, component-mass and atomwise-sum, reporting the first failure."""
    components = result.components
    if len(components) != instance.m:
        return VerificationVerdict(False, "component-mass", len(components))
    for i, nu in enumerate(components):
        if any(a not in instance.sets[i] for a in nu.weights):
            return VerificationVerdict(False, "support", i)
    for i, nu in enumerate(components):
        if nu.total_mass != instance.targets[i]:
            return VerificationVerdict(False, "component-mass", i)
    summed: dict[int, Fraction] = {}
    for nu in components:
        for a, w in nu.weights.items():
            summed[a] = summed.get(a, ZERO) + w
    if summed != dict(instance.xi.weights):
        bad = sorted(set(summed) ^ set(instance.xi.weights)
                     | {a for a in summed if summed[a] != instance.xi.mass_at(a)})
        return VerificationVerdict(False, "atomwise-sum", bad[0] if bad else None)
    return VerificationVerdict(True)
