"""Finite-prefix diagnostics for convergence in the bottleneck metric.

The characterization under test: a sequence converges in the bottleneck metric
iff it converges weakly AND the mass of every separating set is eventually
exactly right in a small neighborhood.  On finite prefixes no limit statement
is provable, so verdicts are evidence-qualified: "consistent with" on full
agreement, a concrete witness (criterion, index, set) for refutation, and
Inconclusive otherwise.  Separating-mass checks compare integers: the limit
and every term are scaled once to one common denominator.
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


def _w_proxy_verdict(w1s, threshold: float) -> CriterionVerdict:
    tail = w1s[-3:]
    small = all(v <= threshold for v in tail)
    monotone = all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    if small and monotone:
        index = len(w1s)
        while index > 0 and w1s[index - 1] <= threshold:
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


def _direct_verdict_label(deltas, threshold: float) -> str:
    if deltas[-1] <= threshold:
        return CONSISTENT
    if len(deltas) == 1 or deltas[-1] >= deltas[-2] - 1e-15:
        return NOT_CONVERGENT
    return INCONCLUSIVE


def d_convergence_verdict(sequence: MeasureSequence, *, w1_threshold: float = 1e-6,
                          delta_threshold: float = 1e-6) -> ConvergenceReport:
    """Run all four checks and reconcile them into one evidence-qualified verdict."""
    if len(sequence) < 2:
        raise MalformedInput("need a prefix of length >= 2")
    deltas, w1s = delta_sequence(sequence)
    space = sequence.space
    limit_supp = sequence.limit.support()

    w_proxy = _w_proxy_verdict(w1s, w1_threshold)

    separating_fail = None
    stabilizations = []
    for sep in separating_subsets(sequence.limit):
        outcome = separating_mass_check(sequence, sep, sep.clearance / 2)
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

    direct = _direct_verdict_label(deltas, delta_threshold)
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
