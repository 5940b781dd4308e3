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

Each step reads one table of exact integer subset slacks (index subsets as
bitmasks), built by a subset-sum (zeta) transform over the occupied cells in
O(m 2^m) additions.  The construction runs from an explicit worklist, so no
interpreter setting such as the recursion limit changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .errors import CasePreconditionViolated, InfeasibleInstance, MalformedInput, SolverInvariantError, TooManySets
from .flows import bipartite_network, max_flow, scale_masses
from .measures import ZERO, DiscreteMeasure, make_measure

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
        targets = tuple(Fraction(t) for t in targets)
        if len(sets) != len(targets) or not sets:
            raise MalformedInput("need m >= 1 sets with matching targets")
        if any(t < 0 for t in targets):
            raise MalformedInput("targets must be nonnegative")
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


def _cells(weights, sets) -> dict:
    """Occupied cells: mask (bit i set iff in sets[i]) -> atoms; atoms in no set left out."""
    masks = dict.fromkeys(weights, 0)
    for i, block in enumerate(sets):
        for a in masks.keys() & block:
            masks[a] |= 1 << i
    cells: dict[int, list] = {}
    for a, mask in masks.items():
        if mask:
            cells.setdefault(mask, []).append(a)
    return cells


@lru_cache(maxsize=None)
def _masks_in_order(m: int) -> tuple:
    """Nonempty index subsets as masks, by cardinality, then lexicographically (full set last)."""
    return tuple(sum(1 << i for i in c) for k in range(1, m + 1) for c in combinations(range(m), k))


def _indices(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _slack_table(weights, sets, targets):
    """Exact integer slack of every index subset: (den, cells, slack).

    Masses and targets are scaled by their common denominator den; cells maps
    each occupied cell to (scaled mass, atoms).  The subset-sum transform gives
    inside[T], the mass of the cells inside T, one slice-wise sum per bit.  The
    union of the sets in S holds the covered mass not inside the complement of
    S, so slack[S] = covered - inside[~S] - (targets summed over S).
    """
    den, (masses, targets) = scale_masses(weights.values(), targets)
    scaled = dict(zip(weights, masses))
    n = 1 << len(sets)
    inside = [0] * n
    cells = {}
    for mask, atoms in _cells(weights, sets).items():
        mass = sum(scaled[a] for a in atoms)
        cells[mask] = (mass, atoms)
        inside[mask] = mass
    covered = sum(inside)
    for i in range(len(sets)):
        low, width = 1 << i, 2 << i
        if low * width <= n:  # fewer offsets than blocks: one strided slice per offset
            for j in range(low, width):
                inside[j::width] = map(add, inside[j::width], inside[j - low::width])
        else:
            for j in range(low, n, width):
                inside[j:j + low] = map(add, inside[j:j + low], inside[j - low:j])
    # Target sums by the highest bit: the masks below 2^(i+1) are those below
    # 2^i, then the same masks with bit i added.
    tsum = [0]
    for t in targets:
        tsum += [s + t for s in tsum]
    return den, cells, [covered - c - t for c, t in zip(reversed(inside), tsum)]


def check_feasibility(instance: DecompositionInstance) -> FeasibilityVerdict:
    """Exhaustive subset-bound and total-mass check; the witness is the first failing subset."""
    m = instance.m
    if m > FEASIBILITY_CAP:
        raise TooManySets(f"feasibility check capped at m <= {FEASIBILITY_CAP}")
    total_targets = sum(instance.targets, start=ZERO)
    if instance.xi.total_mass != total_targets:
        return FeasibilityVerdict(
            False, "total-mass", tuple(range(m)), instance.xi.total_mass, total_targets
        )
    den, _, slack = _slack_table(instance.xi.weights, instance.sets, instance.targets)
    if min(slack) >= 0:
        return FeasibilityVerdict(True)
    mask = next(mask for mask in _masks_in_order(m) if slack[mask] < 0)
    subset = _indices(mask)
    rhs = sum((instance.targets[i] for i in subset), start=ZERO)
    return FeasibilityVerdict(False, "subset-bound", subset, rhs + Fraction(slack[mask], den), rhs)


def feasibility_by_flow(instance: DecompositionInstance) -> bool:
    """Independent oracle: targets route through a set-to-atom bipartite graph.

    Set i is a row supplying x_i, atom a a column absorbing xi({a}), and
    (i, a) is a pair of ``flows.bipartite_network`` iff a in B_i.
    The Hall conditions hold iff the max flow saturates every supply and the
    totals agree.
    """
    weights = instance.xi.weights
    atoms = sorted(weights)
    if instance.xi.total_mass != sum(instance.targets, start=ZERO):
        return False
    _, (supply, demand) = scale_masses(instance.targets, [weights[a] for a in atoms])
    column = {a: k for k, a in enumerate(atoms)}
    pairs = [(i, column[a]) for i, block in enumerate(instance.sets) for a in block if a in column]
    return max_flow(*bipartite_network(supply, demand, pairs))[0] == sum(supply)


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
    per_k = [0] * (m + 1)
    for mask in _cells(instance.xi.weights, instance.sets):
        per_k[bin(mask).count("1")] += 1
    rho = sum(per_k[1:])
    return rho, tuple(per_k[1:])


def _epsilon_zero(slack, psi: int, p: int):
    """Least slack over the subsets that meet the cell psi but avoid p, or None.

    These are the only subsets whose bound loses slack when mass leaves psi
    and target p drops by the same amount; all of them are proper.
    """
    bit = 1 << p
    return min((s for mask, s in enumerate(slack) if mask & psi and not mask & bit), default=None)


def epsilon_zero(instance: DecompositionInstance, psi, p: int):
    """Largest mass removable from cell psi (charged to target p) keeping every subset bound.

    Only proper subsets that meet psi but avoid p lose slack under the
    subtraction, so epsilon_0 is the minimum of their slacks; returns None
    (unbounded) when no such subset exists.
    """
    psi = frozenset(psi)
    if p not in psi:
        raise ValueError("p must belong to psi")
    if any(t <= 0 for t in instance.targets):
        raise CasePreconditionViolated("Case 3 needs strictly positive targets")
    den, _, slack = _slack_table(instance.xi.weights, instance.sets, instance.targets)
    for mask in _masks_in_order(instance.m)[:-1]:
        if slack[mask] <= 0:
            raise CasePreconditionViolated(
                f"Case 3 needs strict inequalities; subset {_indices(mask)} is tight"
            )
    eps = _epsilon_zero(slack, sum(1 << i for i in psi), p)
    return None if eps is None else Fraction(eps, den)


def decompose(instance: DecompositionInstance, *,
              verdict: FeasibilityVerdict | None = None) -> DecompositionResult:
    """Run the inductive construction; exact arithmetic end to end.

    ``verdict`` is ``check_feasibility(instance)`` when the caller has
    already computed it; without it the check runs here.

    A task (weights, original indices of its sets, targets, depth) waits on a
    stack; last in, first out keeps the trace in the pre-order of the case
    tree.  Base and Case3 add their masses into the component of the original
    set index, so Case1 and Case2 need no merge.
    """
    if instance.m > DECOMPOSE_CAP:
        raise TooManySets(f"decompose capped at m <= {DECOMPOSE_CAP}")
    if verdict is None:
        verdict = check_feasibility(instance)
    if not verdict.feasible:
        raise InfeasibleInstance(verdict)
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

        # Case 2: a zero target keeps an empty component.
        if 0 in targets:
            k = targets.index(0)
            trace.append(("Case2", depth))
            stack.append((weights, idx[:k] + idx[k + 1:], targets[:k] + targets[k + 1:], depth + 1))
            continue

        den, cells, slack = _slack_table(weights, [sets[j] for j in idx], targets)

        # Case 1: the first tight proper subset splits the instance in two.
        # Atoms of the inside part are gone from the outside part, so its
        # sets keep their original atoms without changing any cell.
        if 0 in slack[1:-1]:
            tight = next(mask for mask in _masks_in_order(m) if slack[mask] == 0)
            trace.append(("Case1", depth))
            members = _indices(tight)
            rest = tuple(i for i in range(m) if not tight >> i & 1)
            inside = frozenset().union(*(sets[idx[i]] for i in members))
            w_in, w_out = {}, {}
            for a, w in weights.items():
                (w_in if a in inside else w_out)[a] = w
            for keep, w in ((rest, w_out), (members, w_in)):  # the inside part runs first
                stack.append((w, tuple(idx[i] for i in keep), tuple(targets[i] for i in keep), depth + 1))
            continue

        # Case 3: strict slack everywhere and positive targets; shave an
        # epsilon-slice off the lexicographically smallest occupied cell.
        if not cells:
            raise SolverInvariantError("positive targets with matching total mass force an occupied cell")
        psi = min(cells)
        cell_mass, cell_atoms = cells[psi]
        p = (psi & -psi).bit_length() - 1
        eps_zero = _epsilon_zero(slack, psi, p)
        target = targets[p].numerator * (den // targets[p].denominator)
        eps = min(e for e in (eps_zero, target, cell_mass) if e is not None)
        if eps <= 0:
            raise SolverInvariantError(f"Case 3 slice of mass {Fraction(eps, den)} is not positive")
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
