"""Discrete measures with exact rational masses, pushforwards and unit-interval
representations.

Masses are `fractions.Fraction` throughout, so total mass is preserved without
drift; distances stay floats.  Zero-weight atoms are dropped on construction,
which makes the support exactly the stored key set.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotProbability, SolverInvariantError, SpaceMismatch, UnknownAtom
from .spaces import FiniteMetricSpace, same_space

ONE = Fraction(1)
ZERO = Fraction(0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (point indices) with strictly positive rational weights."""

    space: FiniteMetricSpace
    weights: Mapping[int, Fraction]
    total_mass: Fraction

    def __call__(self, atoms: Iterable[int]) -> Fraction:
        """Mass of a set of atoms."""
        w = self.weights
        return sum((w[a] for a in set(atoms) if a in w), start=ZERO)

    def mass_at(self, atom: int) -> Fraction:
        return self.weights.get(atom, ZERO)

    @property
    def is_probability(self) -> bool:
        return self.total_mass == ONE

    def support(self) -> frozenset:
        return frozenset(self.weights)

    def items(self):
        return sorted(self.weights.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return same_space(self.space, other.space) and dict(self.weights) == dict(other.weights)

    def __hash__(self):
        return hash((self.space.point_ids, tuple(sorted(self.weights.items()))))

    def add(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if not same_space(self.space, other.space):
            raise SpaceMismatch("cannot add measures on different spaces")
        merged = dict(self.weights)
        for a, w in other.weights.items():
            merged[a] = merged.get(a, ZERO) + w
        return make_measure(self.space, merged.items())


def make_measure(space: FiniteMetricSpace, atom_weight_pairs) -> DiscreteMeasure:
    """Build a measure from (atom index, weight) pairs.

    Duplicate atoms merge by summation; zero weights are dropped; negative
    weights are rejected.
    """
    if isinstance(atom_weight_pairs, Mapping):
        atom_weight_pairs = atom_weight_pairs.items()
    check = space.check_atom
    return _merge(space, ((check(atom), weight) for atom, weight in atom_weight_pairs))


def _merge(space: FiniteMetricSpace, pairs) -> DiscreteMeasure:
    """The measure of (checked atom, weight) pairs: weights as Fractions,
    negative ones rejected, duplicates summed, zeros dropped, atoms ascending,
    and the total summed from the weights."""
    acc: dict[int, Fraction] = {}
    for atom, weight in pairs:
        # A Fraction is immutable and canonical: keep it rather than copy it.
        w = weight if type(weight) is Fraction else Fraction(weight)
        if w.numerator < 0:
            raise ValueError(f"negative weight {w} at atom {atom}")
        prev = acc.get(atom)
        acc[atom] = w if prev is None else prev + w
    if len(acc) == 1:
        ((atom, w),) = acc.items()
        return DiscreteMeasure(space, {atom: w} if w.numerator else {}, w)
    weights = {a: acc[a] for a in sorted(acc) if acc[a].numerator}
    return DiscreteMeasure(space, weights, sum(weights.values(), start=ZERO))


def point_mass(space: FiniteMetricSpace, atom: int) -> DiscreteMeasure:
    return make_measure(space, [(atom, ONE)])


def pushforward(mu: DiscreteMeasure, point_map) -> DiscreteMeasure:
    """Image measure under a total point map; colliding images merge weights.

    ``point_map`` may be a callable, a sequence indexed by atom, or a mapping.
    """
    if callable(point_map):
        fn = point_map
    elif isinstance(point_map, Mapping):
        fn = point_map.__getitem__
    else:
        fn = list(point_map).__getitem__
    # Every image is checked before any weight, so an undefined image is
    # reported ahead of a bad weight of a hand-built measure.
    check = mu.space.check_atom
    pairs = []
    for atom, w in mu.weights.items():
        try:
            image = fn(atom)
        except (KeyError, IndexError):
            raise UnknownAtom(f"point map undefined at atom {atom}") from None
        pairs.append((check(image), w))
    return _merge(mu.space, pairs)


@dataclass(frozen=True)
class IntervalRepresentation:
    """Piecewise-constant map from [0, 1] pushing Lebesgue measure to a measure.

    ``pieces`` is an ordered tuple of (start, end, atom) with rational
    endpoints; the subintervals [start, end) partition [0, 1) and the final
    piece also carries the right endpoint 1.
    """

    space: FiniteMetricSpace
    pieces: tuple  # ((Fraction start, Fraction end, int atom), ...)

    def value_at(self, t: Fraction) -> int:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("argument outside [0, 1]")
        for start, end, atom in self.pieces:
            if start <= t < end:
                return atom
        return self.pieces[-1][2]

    def to_measure(self) -> DiscreteMeasure:
        """Pushforward of Lebesgue measure; reproduces the represented measure."""
        return make_measure(
            self.space, [(atom, end - start) for start, end, atom in self.pieces]
        )


def interval_representation(mu: DiscreteMeasure, order: Sequence[int] | None = None) -> IntervalRepresentation:
    """Canonical representation: atoms in ascending index order, cumulative layout.

    ``order`` overrides the layout order (it must enumerate the support); the
    default ascending order makes outputs reproducible.
    """
    if not mu.is_probability:
        raise NotProbability(f"total mass is {mu.total_mass}, expected 1")
    atoms = sorted(mu.weights) if order is None else list(order)
    if sorted(atoms) != sorted(mu.weights):
        raise UnknownAtom("order must enumerate exactly the support")
    pieces = []
    lo = ZERO
    for atom in atoms:
        hi = lo + mu.weights[atom]
        pieces.append((lo, hi, atom))
        lo = hi
    if lo != ONE:
        raise SolverInvariantError(f"interval pieces end at {lo}, not at 1")
    return IntervalRepresentation(mu.space, tuple(pieces))


def sup_distance(rep_a: IntervalRepresentation, rep_b: IntervalRepresentation) -> float:
    """sup over t in [0,1] of d(f(t), g(t)), via the common refinement.

    The refinement is finite, so the supremum is a maximum of matrix entries
    over pairs of atoms whose pieces overlap with positive length.
    """
    if not same_space(rep_a.space, rep_b.space):
        raise SpaceMismatch("representations live on different spaces")
    space = rep_a.space
    best = 0.0
    for a_start, a_end, atom_a in rep_a.pieces:
        row = space.row(atom_a)
        for b_start, b_end, atom_b in rep_b.pieces:
            if max(a_start, b_start) < min(a_end, b_end):
                best = max(best, row[atom_b])
    return best
