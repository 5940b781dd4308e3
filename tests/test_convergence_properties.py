"""Property tests: `separating_mass_check`, which compares integer masses under
one common denominator, against its definition on `Fraction` masses.

The definition: term n violates a separating set S at radius eps when
term(N_eps(S)) != limit(S); the outcome is the least index after the last
violation, or a failure when the last term violates.  Terms mix
denominators: random weights, the limit itself, the limit with 2^-(n+3) of
one atom's mass moved elsewhere (the vanishing-atom class), and the limit with
one atom's mass moved to another point.  Hand-built separating sets with an
atom outside the limit's support are checked too.

`_separating_outcomes`, which reads every subset's outcome from MST clearances
and per-cell deficits, is checked against one `separating_mass_check` per set
of `separating_subsets`, on every metric rule and on matrices built with
``validate=False``, where its fallbacks run.
"""
from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot import convergence
from bottleneck_ot.convergence import (
    MassCheckOutcome,
    MeasureSequence,
    SeparatingSet,
    _separating_outcomes,
    separating_mass_check,
    separating_subsets,
)
from bottleneck_ot.errors import EpsilonTooLarge
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def fraction_outcome(sequence, sep, eps) -> MassCheckOutcome:
    neighborhood = sequence.space.neighborhood(sep.atoms, eps)
    target = sequence.limit(sep.atoms)
    violations = [n for n, term in enumerate(sequence.terms) if term(neighborhood) != target]
    if not violations:
        return MassCheckOutcome(True, 0, None)
    last = violations[-1]
    if last == len(sequence) - 1:
        return MassCheckOutcome(False, None, last)
    return MassCheckOutcome(True, last + 1, last)


def probability(draw, space, atoms):
    raw = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    return make_measure(space, [(a, Fraction(r, sum(raw))) for a, r in zip(atoms, raw)])


def draw_terms(draw, space, limit, max_terms):
    """Terms of four kinds: random weights, the limit itself, the limit with
    2^-(n+3) of one atom's mass moved to a drawn point, and the limit with all
    of it moved."""
    points = st.integers(0, space.n_points - 1)
    terms = []
    for index in range(draw(st.integers(1, max_terms))):
        kind = draw(st.sampled_from(("random", "limit", "vanishing", "moved")))
        if kind == "random":
            atoms = draw(st.lists(points, min_size=1, max_size=space.n_points, unique=True))
            terms.append(probability(draw, space, atoms))
        elif kind == "limit":
            terms.append(limit)
        else:
            atom = draw(st.sampled_from(sorted(limit.weights)))
            mass = limit.weights[atom]
            moved = mass / (1 << (index + 3)) if kind == "vanishing" else mass
            weights = dict(limit.weights)
            weights[atom] -= moved
            pairs = list(weights.items()) + [(draw(points), moved)]
            terms.append(make_measure(space, pairs))
    return terms


@st.composite
def sequences(draw):
    n = draw(st.integers(2, 7))
    cells = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          min_size=n, max_size=n, unique=True))
    space = build_space([f"p{i}" for i in range(n)], "euclidean",
                        coords=[[x / 5, y / 5] for x, y in cells])
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True))
    limit = probability(draw, space, support)
    return MeasureSequence.build(draw_terms(draw, space, limit, 6), limit)


@PROPERTY_SETTINGS
@given(sequence=sequences(), fraction=st.sampled_from((Fraction(1, 2), Fraction(1, 5), Fraction(9, 10))))
def test_integer_mass_check_matches_the_fraction_definition(sequence, fraction):
    for sep in separating_subsets(sequence.limit):
        eps = sep.clearance * float(fraction)
        assert separating_mass_check(sequence, sep, eps) == fraction_outcome(sequence, sep, eps)


@PROPERTY_SETTINGS
@given(sequence=sequences(), data=st.data())
def test_hand_built_set_with_an_atom_outside_the_support(sequence, data):
    space = sequence.space
    atoms = set(data.draw(st.lists(st.integers(0, space.n_points - 1), min_size=1, unique=True)))
    outside = sorted(set(range(space.n_points)) - sequence.limit.support())
    if outside:
        atoms.add(data.draw(st.sampled_from(outside)))
    sep = SeparatingSet(frozenset(atoms), data.draw(st.sampled_from((0.1, 0.3, 1.0))))
    eps = sep.clearance / 2
    assert separating_mass_check(sequence, sep, eps) == fraction_outcome(sequence, sep, eps)


def test_hand_built_set_outside_the_support_counts_zero_limit_mass():
    space = build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [1.0], [5.0]])
    half = Fraction(1, 2)
    limit = make_measure(space, [(0, half), (1, half)])
    stray = make_measure(space, [(0, half), (1, Fraction(3, 8)), (2, Fraction(1, 8))])
    sequence = MeasureSequence.build([stray, limit, limit], limit)
    sep = SeparatingSet(frozenset({2}), 1.0)
    assert separating_mass_check(sequence, sep, 0.5) == MassCheckOutcome(True, 1, 0)


def run_until_error(pairs):
    """The pairs an iterable yields before it raises EpsilonTooLarge, and the
    message (None when it ends)."""
    out = []
    try:
        for pair in pairs:
            out.append(pair)
    except EpsilonTooLarge as exc:
        return out, str(exc)
    return out, None


def direct_outcomes(sequence):
    for sep in separating_subsets(sequence.limit):
        yield sep, separating_mass_check(sequence, sep, sep.clearance / 2)


RAW_ENTRIES = (1.0, 2.0, 3.0, 5.0, 8.0, math.inf)


@st.composite
def spaces_of_every_kind(draw):
    """A space of each metric rule, or a matrix built with ``validate=False``
    that may be asymmetric, break the triangle inequality or hold inf."""
    n = draw(st.integers(2, 10))
    labels = [f"p{i}" for i in range(n)]
    kind = draw(st.sampled_from(("euclidean", "flat-torus", "explicit-matrix", "unvalidated")))
    if kind in ("euclidean", "flat-torus"):
        cells = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              min_size=n, max_size=n, unique=True))
        return build_space(labels, kind, coords=[[x / 6, y / 6] for x, y in cells])
    if kind == "explicit-matrix":  # shortest paths over random weights: a metric
        dist = [[0.0 if i == j else float(draw(st.integers(1, 9))) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(i):
                dist[i][j] = dist[j][i]
        for m in range(n):
            dist = [[min(dist[i][j], dist[i][m] + dist[m][j]) for j in range(n)]
                    for i in range(n)]
        return build_space(labels, kind, matrix=dist)
    symmetric = draw(st.booleans())
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (not symmetric or j < i):
                dist[i][j] = draw(st.sampled_from(RAW_ENTRIES))
                if symmetric:
                    dist[j][i] = dist[i][j]
    return build_space(labels, "explicit-matrix", matrix=dist, validate=False)


@st.composite
def sequences_on_any_space(draw):
    space = draw(spaces_of_every_kind())
    n = space.n_points
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 8), unique=True))
    limit = probability(draw, space, support)
    return MeasureSequence.build(draw_terms(draw, space, limit, 5), limit)


def test_separating_outcomes_equal_the_direct_checks(monkeypatch):
    """Every outcome, in order, and the same EpsilonTooLarge at the same set;
    each fallback is reached by some draw."""
    reached = set()
    direct_check = convergence.separating_mass_check

    def counted_check(sequence, sep, epsilon):
        reached.add("epsilon" if not 0 < epsilon < sep.clearance else "cells")
        return direct_check(sequence, sep, epsilon)

    def counted_subsets(mu):
        reached.add("whole")
        return separating_subsets(mu)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(sequence=sequences_on_any_space())
    def check(sequence):
        expected = run_until_error(direct_outcomes(sequence))
        with monkeypatch.context() as patch:
            patch.setattr(convergence, "separating_mass_check", counted_check)
            patch.setattr(convergence, "separating_subsets", counted_subsets)
            got = run_until_error(_separating_outcomes(sequence))
        assert got == expected

    check()
    assert reached == {"whole", "cells", "epsilon"}
