import math
import re
from fractions import Fraction

import pytest

from bottleneck_ot import convergence
from bottleneck_ot.convergence import (
    CONSISTENT,
    INCONCLUSIVE,
    NOT_CONVERGENT,
    MassCheckOutcome,
    MeasureSequence,
    SeparatingSet,
    _separating_outcomes,
    d_convergence_verdict,
    delta_sequence,
    separating_mass_check,
    separating_subsets,
)
from bottleneck_ot.errors import EpsilonTooLarge, MalformedInput, SupportTooLarge
from bottleneck_ot.measures import make_measure, point_mass
from bottleneck_ot.spaces import build_space

from conftest import drifting_inconclusive_sequence, convergence_suite


@pytest.fixture
def two():
    return build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])


def vanishing_atom(space, n):
    return make_measure(space, [(0, Fraction(1, n)), (1, Fraction(n - 1, n))])


def test_separating_subsets_point_mass(two):
    sets = separating_subsets(point_mass(two, 0))
    assert len(sets) == 1
    assert sets[0].atoms == {0}
    assert sets[0].clearance == two.diameter()


def test_separating_subsets_two_atoms(two):
    mu = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    sets = separating_subsets(mu)
    assert [s.atoms for s in sets] == [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    assert sets[0].clearance == two.d(0, 1)


def test_clearance_halving_leaves_no_extra_mass():
    space = build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [0.3], [1.0]])
    mu = make_measure(space, [(0, Fraction(1, 4)), (1, Fraction(1, 4)), (2, Fraction(1, 2))])
    for sep in separating_subsets(mu):
        ring = space.neighborhood(sep.atoms, sep.clearance / 2) - sep.atoms
        assert mu(ring) == 0


def test_separating_subsets_cap():
    space = build_space([f"p{i}" for i in range(13)], "euclidean",
                        coords=[[float(i)] for i in range(13)])
    mu = make_measure(space, [(i, Fraction(1, 13)) for i in range(13)])
    with pytest.raises(SupportTooLarge):
        separating_subsets(mu)


def test_mass_check_constant_sequence(two):
    mu = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    seq = MeasureSequence.build([mu] * 4, mu)
    sep = separating_subsets(mu)[0]
    outcome = separating_mass_check(seq, sep, sep.clearance / 2)
    assert outcome.ok and outcome.stabilization_index == 0


def test_mass_check_fails_on_vanishing_atom(two):
    seq = MeasureSequence.build([vanishing_atom(two, n) for n in range(2, 8)], point_mass(two, 1))
    (sep,) = separating_subsets(seq.limit)
    assert sep.atoms == {1}
    outcome = separating_mass_check(seq, sep, sep.clearance / 2)
    assert not outcome.ok
    assert outcome.last_violation == len(seq) - 1


def test_mass_check_reports_stabilization_index(two):
    limit = make_measure(two, [(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    other = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    seq = MeasureSequence.build([other] * 5 + [limit] * 5, limit)
    sep = separating_subsets(limit)[0]
    outcome = separating_mass_check(seq, sep, sep.clearance / 2)
    assert outcome.ok and outcome.stabilization_index == 5


def test_mass_check_epsilon_bounds(two):
    mu = point_mass(two, 1)
    seq = MeasureSequence.build([mu] * 3, mu)
    (sep,) = separating_subsets(mu)
    with pytest.raises(EpsilonTooLarge):
        separating_mass_check(seq, sep, sep.clearance)
    with pytest.raises(EpsilonTooLarge):
        separating_mass_check(seq, sep, 0.0)


def test_outcomes_fall_back_where_a_term_atom_is_near_two_support_atoms(monkeypatch):
    # x lies within 2 of both a and b, which are 4 apart: every set has
    # clearance 4, and x's near set {a, b} is not pairwise closer than 4, so
    # a cell cannot stand for x.  Giving x to a's cell would pass {b}.
    space = build_space(["a", "b", "x"], "explicit-matrix",
                        matrix=[[0, 4, 1], [4, 0, 1], [1, 1, 0]], validate=False)
    half = Fraction(1, 2)
    limit = make_measure(space, [(0, half), (1, half)])
    term = make_measure(space, [(1, half), (2, half)])
    seq = MeasureSequence.build([term, term], limit)
    direct = [(sep, separating_mass_check(seq, sep, sep.clearance / 2))
              for sep in separating_subsets(limit)]
    calls = []
    monkeypatch.setattr(convergence, "separating_mass_check",
                        lambda *args: calls.append(args) or separating_mass_check(*args))
    assert list(_separating_outcomes(seq)) == direct
    assert len(calls) == len(direct) == 3
    assert direct[1] == (SeparatingSet(frozenset({1}), 4.0), MassCheckOutcome(False, None, 1))


def test_infinite_clearance_raises_as_the_direct_check():
    space = build_space(["a", "b"], "explicit-matrix",
                        matrix=[[0, math.inf], [math.inf, 0]], validate=False)
    limit = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    seq = MeasureSequence.build([limit, limit], limit)
    with pytest.raises(EpsilonTooLarge, match=re.escape("epsilon must lie strictly inside (0, inf)")):
        d_convergence_verdict(seq)


def test_delta_sequence_constant_and_vanishing_atom(two):
    mu = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    deltas, w1s = delta_sequence(MeasureSequence.build([mu] * 3, mu))
    assert deltas == [0.0, 0.0, 0.0]
    assert w1s == [0.0, 0.0, 0.0]

    seq = MeasureSequence.build([vanishing_atom(two, n) for n in range(2, 8)], point_mass(two, 1))
    deltas, w1s = delta_sequence(seq)
    assert all(d == two.d(0, 1) for d in deltas)
    for n, w1 in zip(range(2, 8), w1s):
        assert w1 == pytest.approx(1.0 / n, abs=1e-12)
        assert w1 <= deltas[0] + 1e-12


def test_verdict_constant_sequence(two):
    mu = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    report = d_convergence_verdict(MeasureSequence.build([mu] * 4, mu))
    assert report.overall == CONSISTENT
    assert report.characterization_verdict == CONSISTENT
    assert report.direct_verdict == CONSISTENT
    assert set(report.deltas) == {0.0}


def test_verdict_vanishing_atom_not_convergent_with_witness(two):
    seq = MeasureSequence.build([vanishing_atom(two, n) for n in range(2, 10)], point_mass(two, 1))
    report = d_convergence_verdict(seq)
    assert report.overall == NOT_CONVERGENT
    assert report.witness[0] == "separating-mass"
    assert report.witness[2] == frozenset({1})
    assert report.characterization_verdict == NOT_CONVERGENT
    assert report.direct_verdict == NOT_CONVERGENT


def test_verdict_second_counterexample_supports_coincide(two):
    terms = [
        make_measure(two, [(0, Fraction(n + 1, 2 * n)), (1, Fraction(n - 1, 2 * n))])
        for n in range(2, 10)
    ]
    limit = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    report = d_convergence_verdict(MeasureSequence.build(terms, limit))
    assert report.verdict_for("support-hausdorff").passed
    assert all(d == two.d(0, 1) for d in report.deltas)
    assert report.overall == NOT_CONVERGENT
    assert report.witness[0] == "separating-mass"
    assert report.witness[2] == frozenset({0})


def test_verdict_inconclusive_for_unfinished_drift():
    report = d_convergence_verdict(drifting_inconclusive_sequence())
    assert report.overall == INCONCLUSIVE
    assert report.characterization_verdict == INCONCLUSIVE
    assert report.direct_verdict == INCONCLUSIVE
    assert report.witness is None


def test_support_witness_fires_when_masses_balance_but_supports_disagree():
    # A compensated stray: the in-window mass matches the limit exactly (the
    # separating checks pass) but the stray support point never leaves, so the
    # support-Hausdorff criterion carries the refutation.
    space = build_space(["x", "w", "far"], "euclidean",
                        coords=[[0.0], [0.3], [1.0]])
    limit = point_mass(space, 0)
    term = make_measure(space, [(0, Fraction(3, 4)), (1, Fraction(1, 4))])
    seq = MeasureSequence.build([term] * 5, limit)
    report = d_convergence_verdict(seq)
    assert report.verdict_for("separating-mass").passed
    assert not report.verdict_for("support-hausdorff").passed
    assert report.overall == NOT_CONVERGENT
    assert report.witness[0] == "support-hausdorff"


def test_sequence_build_validation(two):
    mu = point_mass(two, 0)
    half = make_measure(two, [(0, Fraction(1, 2))])
    with pytest.raises(MalformedInput):
        MeasureSequence.build([], mu)
    from bottleneck_ot.errors import NotProbability, SpaceMismatch

    with pytest.raises(NotProbability):
        MeasureSequence.build([half], mu)
    with pytest.raises(NotProbability):
        MeasureSequence.build([mu], half)
    other_space_mu = point_mass(
        build_space(["x", "y"], "euclidean", coords=[[0.0], [3.0]]), 0
    )
    with pytest.raises(SpaceMismatch):
        MeasureSequence.build([other_space_mu], mu)
    with pytest.raises(MalformedInput):
        d_convergence_verdict(MeasureSequence.build([mu], mu))


def test_full_support_note_recorded(two):
    mu = make_measure(two, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    report = d_convergence_verdict(MeasureSequence.build([mu] * 3, mu))
    assert any("full-support" in note for note in report.notes)


def test_characterization_and_direct_verdicts_agree_on_suite():
    # Disagreement between the separating-set route and the direct distance
    # route on any suite member is a build-failing event.
    for name, seq in convergence_suite():
        report = d_convergence_verdict(seq)
        assert report.characterization_verdict == report.direct_verdict, name


def test_support_hausdorff_dominated_by_delta_on_suite():
    for name, seq in convergence_suite():
        report = d_convergence_verdict(seq)
        space = seq.space
        from bottleneck_ot.spaces import hausdorff

        for term, delta in zip(seq.terms, report.deltas):
            h = hausdorff(space, term.support(), seq.limit.support())
            assert h <= delta + 1e-12, name


def test_w1_dominated_by_delta_on_suite():
    for name, seq in convergence_suite():
        report = d_convergence_verdict(seq)
        for w1, delta in zip(report.w1s, report.deltas):
            assert w1 <= delta + 1e-12, name
