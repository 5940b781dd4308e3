"""Finite-prefix diagnostics for convergence in the bottleneck metric.

The characterization under test: a sequence converges in the bottleneck metric
iff it converges weakly AND the mass of every separating set is eventually
exactly right in a small neighborhood.  On finite prefixes no limit statement
is provable, so verdicts are evidence-qualified: "consistent with" on full
agreement, a concrete witness (criterion, index, set) for refutation, and
Inconclusive otherwise.  Separating-mass checks compare integers: the limit
and every term are scaled once to one common denominator.

The verdict checks all 2^k - 1 subsets of the limit's support without a
neighborhood scan per subset.  A subset's clearance is the lightest edge of a
minimum spanning tree of the support that crosses it (the cut property).  Per
distinct clearance c, every term atom goes to the cell of its first support
atom within c/2, and each support atom's per-term mass deficits are packed
into one int, so a subset costs a few integer additions.  That attribution is
exact when the support atoms within c/2 of each term atom are pairwise closer
than c, so that no set of clearance c can split them; where that fails
(rounding, a non-metric matrix) or c/2 is not inside (0, c), the subsets of
that clearance go to ``separating_mass_check``, and a support block that is
not symmetric with positive entries goes wholly to the direct enumeration
``separating_subsets``, which stays as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import EpsilonTooLarge, MalformedInput, NotProbability, SpaceMismatch, SupportTooLarge
from .flows import scale_masses
from .measures import DiscreteMeasure
from .spaces import hausdorff, same_space
from .transport import w_infinity, w_p

SUPPORT_CAP = 12
NEGLIGIBLE = 1e-6  # a term's W1 or Delta at or below it counts as reaching the limit

CONSISTENT = "ConsistentWithDConvergence"
NOT_CONVERGENT = "NotDConvergent"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MeasureSequence:
    terms: tuple  # tuple of DiscreteMeasure
    limit: DiscreteMeasure

    @classmethod
    def build(cls, terms, limit: DiscreteMeasure) -> "MeasureSequence":
        terms = tuple(terms)
        if not terms:
            raise MalformedInput("need at least one term")
        for term in terms:
            if not same_space(term.space, limit.space):
                raise SpaceMismatch("sequence terms live on different spaces")
            if not term.is_probability:
                raise NotProbability("sequence terms must be probability measures")
        if not limit.is_probability:
            raise NotProbability("the limit must be a probability measure")
        return cls(terms, limit)

    @property
    def space(self):
        return self.limit.space

    def __len__(self):
        return len(self.terms)

    @cached_property
    def integer_masses(self):
        """``(limit, terms)``: the masses of the limit and of each term times
        one common denominator, as ``atom -> int`` dicts.  Under one
        denominator, equal integer sums are equal masses."""
        measures = (self.limit, *self.terms)
        _, scaled = scale_masses(*(m.weights.values() for m in measures))
        limit, *terms = (dict(zip(m.weights, ints)) for m, ints in zip(measures, scaled))
        return limit, tuple(terms)


@dataclass(frozen=True)
class SeparatingSet:
    """Subset of the limit's support with the largest mass-free neighborhood radius."""

    atoms: frozenset
    clearance: float


def separating_subsets(mu: DiscreteMeasure) -> list:
    """Every nonempty subset of the support, with its clearance.

    On a finite space atoms are isolated, so every support subset separates;
    the clearance is the distance to the rest of the support, or the space
    diameter when the subset is the whole support (nothing else carries mass).
    """
    supp = sorted(mu.support())
    if len(supp) > SUPPORT_CAP:
        raise SupportTooLarge(f"support enumeration capped at {SUPPORT_CAP} atoms")
    space = mu.space
    rows = {a: space.row(a) for a in supp}
    out = []
    for size in range(1, len(supp) + 1):
        for atoms in combinations(supp, size):
            rest = [a for a in supp if a not in atoms]
            if rest:
                clearance = min(rows[a][b] for a in atoms for b in rest)
            else:
                clearance = space.diameter() or 1.0
            out.append(SeparatingSet(frozenset(atoms), clearance))
    return out


@dataclass(frozen=True)
class MassCheckOutcome:
    ok: bool
    stabilization_index: int | None = None
    last_violation: int | None = None


def separating_mass_check(sequence: MeasureSequence, sep: SeparatingSet,
                          epsilon: float) -> MassCheckOutcome:
    """Least index from which every term carries exactly the limit's mass on the
    open epsilon-neighborhood of the set; failure keeps the last violating index.

    Masses are compared as integers under the sequence's common denominator
    (``MeasureSequence.integer_masses``), which is the same test as on the
    ``Fraction`` masses.
    """
    if not 0 < epsilon < sep.clearance:
        raise EpsilonTooLarge(
            f"epsilon must lie strictly inside (0, {sep.clearance})"
        )
    neighborhood = sequence.space.neighborhood(sep.atoms, epsilon)
    limit, terms = sequence.integer_masses
    target = sum(limit.get(a, 0) for a in sep.atoms)
    violations = [
        n for n, term in enumerate(terms)
        if sum(map(term.__getitem__, neighborhood.intersection(term))) != target
    ]
    if not violations:
        return MassCheckOutcome(True, 0, None)
    last = violations[-1]
    if last == len(sequence) - 1:
        return MassCheckOutcome(False, None, last)
    return MassCheckOutcome(True, last + 1, last)


def _support_mst(supp, rows):
    """Edges ``(weight, bits)`` of a minimum spanning tree of the support
    block, lightest first, by Prim's rule; ``bits`` marks the two ends as
    bits of indices into ``supp``.  None unless the block is symmetric with
    positive entries off the diagonal (only matrices built with
    ``validate=False`` fail that)."""
    k = len(supp)
    block = [[rows[a][b] for b in supp] for a in supp]
    if any(not block[i][j] > 0.0 or block[i][j] != block[j][i]
           for i in range(k) for j in range(i)):
        return None
    best = {j: (block[0][j], 0) for j in range(1, k)}
    edges = []
    while best:
        j = min(best, key=lambda v: best[v][0])
        weight, i = best.pop(j)
        edges.append((weight, 1 << i | 1 << j))
        for v, (w, _) in best.items():
            if block[j][v] < w:
                best[v] = (block[j][v], j)
    edges.sort()
    return edges


def _packed_term_masses(terms, width) -> dict:
    """Per atom of any term: its integer mass in term n at bit ``width * n``."""
    packed = {}
    for n, term in enumerate(terms):
        shift = width * n
        for x, m in term.items():
            packed[x] = packed.get(x, 0) + (m << shift)
    return packed


def _packed_deficits(term_masses, biases, supp, rows, clearance):
    """Per atom of ``supp``, its entry of ``biases`` plus the packed term
    masses of its cell; None where attributing a point to a cell could
    misjudge a set of this clearance.

    The cell of a is every term atom x whose first support atom within
    ``clearance / 2`` (in the order of ``supp``) is a.  A set S of this
    clearance holds x in its open neighborhood iff that first atom is in S,
    provided the support atoms within ``clearance / 2`` of x are pairwise
    closer than the clearance: then S cannot take some of them and leave
    others.  The check runs in floats, so rounding or a non-metric matrix
    gives None, and the caller asks ``separating_mass_check`` instead.
    """
    eps = clearance / 2
    packed = [*biases, 0]  # the last slot collects the atoms near no support atom
    for x, masses in term_masses.items():
        near = [i for i, a in enumerate(supp) if rows[a][x] < eps]
        if any(not rows[supp[i]][supp[j]] < clearance for i, j in combinations(near, 2)):
            return None
        packed[near[0] if near else -1] += masses
    return packed


def _separating_outcomes(sequence: MeasureSequence):
    """``(SeparatingSet, MassCheckOutcome)`` for every set of
    ``separating_subsets(sequence.limit)``, in its order, each outcome equal
    to ``separating_mass_check`` at half the clearance, with no neighborhood
    scan per set.

    The clearance of a proper subset is the weight of the lightest edge of a
    minimum spanning tree of the support block that crosses it (the cut
    property): the same matrix entry as the direct minimum.  Sets of one
    clearance share one radius, so each support atom's cell is found once
    per distinct clearance (``_packed_deficits``).  Per atom, its cell's term
    masses less its limit mass, each biased by the common denominator, are
    packed as fixed-width fields of one int; a set's sum of them carries
    nothing from field to field and equals the set's size times the bias in
    every field iff every term carries the limit's mass, and the highest
    differing bit names the last violating term.  A clearance c without
    ``0 < c/2 < c``, or whose cells are not exact, goes to
    ``separating_mass_check``; a support block that is not symmetric with
    positive entries goes wholly to the direct loop.
    """
    supp = sorted(sequence.limit.support())
    if len(supp) > SUPPORT_CAP:
        raise SupportTooLarge(f"support enumeration capped at {SUPPORT_CAP} atoms")
    space = sequence.space
    rows = {a: space.row(a) for a in supp}
    whole = space.diameter() or 1.0  # read before any check, as the direct loop does
    edges = _support_mst(supp, rows)
    if edges is None:
        for sep in separating_subsets(sequence.limit):
            yield sep, separating_mass_check(sequence, sep, sep.clearance / 2)
        return
    limit, terms = sequence.integer_masses
    k, n_terms = len(supp), len(terms)
    denom = sum(limit.values())
    width = ((k + 1) * denom).bit_length()
    ones = sum(1 << width * n for n in range(n_terms))
    term_masses = _packed_term_masses(terms, width)
    biases = [(denom - limit[a]) * ones for a in supp]
    bits = [1 << i for i in range(k)]
    passed = MassCheckOutcome(True, 0, None)
    deficits = {}  # clearance -> packed biased deficits per atom, or None
    for size in range(1, k + 1):
        target = size * denom * ones
        for combo in combinations(range(k), size):
            if size == k:
                clearance = whole
            else:
                mask = sum(map(bits.__getitem__, combo))
                clearance = next(w for w, ends in edges if 0 != mask & ends != ends)
            sep = SeparatingSet(frozenset(map(supp.__getitem__, combo)), clearance)
            if clearance not in deficits:
                deficits[clearance] = None
                if 0 < clearance / 2 < clearance:
                    deficits[clearance] = _packed_deficits(term_masses, biases, supp, rows, clearance)
            packed = deficits[clearance]
            if packed is None:
                yield sep, separating_mass_check(sequence, sep, clearance / 2)
                continue
            differ = sum(map(packed.__getitem__, combo)) ^ target
            if not differ:
                yield sep, passed
                continue
            last = (differ.bit_length() - 1) // width
            if last == n_terms - 1:
                yield sep, MassCheckOutcome(False, None, last)
            else:
                yield sep, MassCheckOutcome(True, last + 1, last)


def delta_sequence(sequence: MeasureSequence):
    """Bottleneck and W1 distances of each term to the limit."""
    deltas = [w_infinity(term, sequence.limit).value for term in sequence.terms]
    w1s = [w_p(term, sequence.limit, 1) for term in sequence.terms]
    return deltas, w1s


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    passed: bool
    stabilization_index: int | None = None
    failure_index: int | None = None
    witness_atoms: frozenset | None = None
    improving: bool = False  # failing but still decreasing at the prefix end


@dataclass(frozen=True)
class ConvergenceReport:
    verdicts: tuple  # CriterionVerdict for w-proxy / separating-mass / support / delta
    deltas: tuple
    w1s: tuple
    characterization_verdict: str
    direct_verdict: str
    overall: str
    witness: tuple | None  # (criterion, index, atoms or None)
    notes: tuple = field(default_factory=tuple)

    def verdict_for(self, name: str) -> CriterionVerdict:
        return next(v for v in self.verdicts if v.name == name)


def _w_proxy_verdict(w1s) -> CriterionVerdict:
    tail = w1s[-3:]
    small = all(v <= NEGLIGIBLE for v in tail)
    monotone = all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    if small and monotone:
        index = len(w1s)
        while index > 0 and w1s[index - 1] <= NEGLIGIBLE:
            index -= 1
        return CriterionVerdict("w-proxy", True, stabilization_index=index)
    improving = len(w1s) >= 2 and w1s[-1] < w1s[-2] - 1e-15
    return CriterionVerdict(
        "w-proxy", False, failure_index=len(w1s) - 1, improving=improving
    )


def _support_verdict(h_values) -> CriterionVerdict:
    if h_values[-1] == 0.0:
        index = len(h_values)
        while index > 0 and h_values[index - 1] == 0.0:
            index -= 1
        return CriterionVerdict("support-hausdorff", True, stabilization_index=index)
    improving = len(h_values) >= 2 and h_values[-1] < h_values[-2] - 1e-15
    return CriterionVerdict(
        "support-hausdorff", False, failure_index=len(h_values) - 1,
        improving=improving,
    )


def _direct_verdict_label(deltas) -> str:
    if deltas[-1] <= NEGLIGIBLE:
        return CONSISTENT
    if len(deltas) == 1 or deltas[-1] >= deltas[-2] - 1e-15:
        return NOT_CONVERGENT
    return INCONCLUSIVE


def d_convergence_verdict(sequence: MeasureSequence) -> ConvergenceReport:
    """Run all four checks and reconcile them into one evidence-qualified verdict."""
    if len(sequence) < 2:
        raise MalformedInput("need a prefix of length >= 2")
    deltas, w1s = delta_sequence(sequence)
    space = sequence.space
    limit_supp = sequence.limit.support()

    w_proxy = _w_proxy_verdict(w1s)

    separating_fail = None
    stabilizations = []
    for sep, outcome in _separating_outcomes(sequence):
        if outcome.ok:
            stabilizations.append(outcome.stabilization_index)
        elif separating_fail is None:
            separating_fail = (sep, outcome.last_violation)
    if separating_fail is None:
        separating = CriterionVerdict(
            "separating-mass", True, stabilization_index=max(stabilizations)
        )
    else:
        sep, last = separating_fail
        separating = CriterionVerdict(
            "separating-mass", False, failure_index=last, witness_atoms=sep.atoms
        )

    h_values = [hausdorff(space, term.support(), limit_supp) for term in sequence.terms]
    support_v = _support_verdict(h_values)

    direct = _direct_verdict_label(deltas)
    delta_v = CriterionVerdict(
        "direct-delta",
        direct == CONSISTENT,
        failure_index=None if direct == CONSISTENT else len(deltas) - 1,
        improving=direct == INCONCLUSIVE,
    )

    if not separating.passed:
        characterization = NOT_CONVERGENT
    elif w_proxy.passed:
        characterization = CONSISTENT
    else:
        characterization = INCONCLUSIVE

    witness = None
    if not separating.passed:
        witness = ("separating-mass", separating.failure_index, separating.witness_atoms)
    elif not support_v.passed and not support_v.improving:
        witness = ("support-hausdorff", support_v.failure_index, None)
    elif direct == NOT_CONVERGENT:
        witness = ("direct-delta", len(deltas) - 1, None)

    if witness is not None:
        overall = NOT_CONVERGENT
    elif w_proxy.passed and separating.passed and support_v.passed and direct == CONSISTENT:
        overall = CONSISTENT
    else:
        overall = INCONCLUSIVE

    notes = ["verdicts are finite-prefix evidence, not limit statements"]
    if limit_supp == frozenset(range(space.n_points)):
        notes.append(
            "full-support shortcut inapplicable: on finite spaces every "
            "support subset has positive clearance"
        )

    return ConvergenceReport(
        verdicts=(w_proxy, separating, support_v, delta_v),
        deltas=tuple(deltas),
        w1s=tuple(w1s),
        characterization_verdict=characterization,
        direct_verdict=direct,
        overall=overall,
        witness=witness,
        notes=tuple(notes),
    )
