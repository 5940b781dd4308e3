import random
from fractions import Fraction

import pytest

from bottleneck_ot.errors import NotProbability, UnknownAtom
from bottleneck_ot.measures import (
    interval_representation,
    make_measure,
    point_mass,
    pushforward,
    sup_distance,
)
from bottleneck_ot.spaces import build_space
from bottleneck_ot.transport import w_infinity

from conftest import random_probability_measure, random_space


@pytest.fixture
def two_point_space():
    return build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])


def test_point_mass(two_point_space):
    mu = make_measure(two_point_space, [(0, 1)])
    assert mu.total_mass == 1
    assert mu.support() == {0}


def test_two_atom_measure(two_point_space):
    mu = make_measure(two_point_space, [(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    assert mu.total_mass == 1
    assert mu.support() == {0, 1}


def test_zero_weights_dropped_and_duplicates_merged(two_point_space):
    mu = make_measure(two_point_space, [(0, Fraction(1, 2)), (1, 0)])
    assert mu.support() == {0}
    merged = make_measure(two_point_space, [(0, Fraction(1, 4)), (0, Fraction(1, 4))])
    assert merged.mass_at(0) == Fraction(1, 2)


def test_unknown_atom_rejected(two_point_space):
    with pytest.raises(UnknownAtom):
        make_measure(two_point_space, [(5, 1)])


def test_pushforward_identity_and_merge(two_point_space):
    mu = make_measure(two_point_space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert pushforward(mu, lambda a: a) == mu
    merged = pushforward(mu, lambda a: 1)
    assert merged == point_mass(two_point_space, 1)
    assert merged.total_mass == 1


def test_pushforward_fixed_point_of_sink_source_mixture():
    # x and y fixed, basin point b steps to x; mass on {x, y} is f-fixed.
    space = build_space(["x", "b", "y"], "euclidean", coords=[[0.0], [0.5], [1.0]])
    f = {0: 0, 1: 0, 2: 2}
    mu_eps = make_measure(space, [(0, Fraction(7, 8)), (2, Fraction(1, 8))])
    assert pushforward(mu_eps, f) == mu_eps


def test_pushforward_mass_conservation_random():
    rng = random.Random(11)
    for _ in range(50):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=6)
        f = {a: rng.randrange(space.n_points) for a in range(space.n_points)}
        nu = pushforward(mu, f)
        assert nu.total_mass == mu.total_mass
        assert nu.support() == {f[a] for a in mu.support()}


def test_interval_representation_layout(two_point_space):
    mu = make_measure(two_point_space, [(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    rep = interval_representation(mu)
    assert rep.pieces == (
        (Fraction(0), Fraction(1, 4), 0),
        (Fraction(1, 4), Fraction(1), 1),
    )
    assert rep.value_at(0) == 0
    assert rep.value_at(Fraction(1, 4)) == 1
    assert rep.value_at(1) == 1


def test_interval_representation_point_mass(two_point_space):
    rep = interval_representation(point_mass(two_point_space, 0))
    assert rep.pieces == ((Fraction(0), Fraction(1), 0),)


def test_interval_representation_requires_probability(two_point_space):
    half = make_measure(two_point_space, [(0, Fraction(1, 2))])
    with pytest.raises(NotProbability):
        interval_representation(half)


def test_representation_pushforward_reproduces_measure():
    rng = random.Random(3)
    for _ in range(30):
        space = random_space(rng, 5)
        mu = random_probability_measure(rng, space)
        assert interval_representation(mu).to_measure() == mu


def test_interval_representation_custom_order(two_point_space):
    mu = make_measure(two_point_space, [(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    rep = interval_representation(mu, order=[1, 0])
    assert rep.pieces == (
        (Fraction(0), Fraction(3, 4), 1),
        (Fraction(3, 4), Fraction(1), 0),
    )
    assert rep.to_measure() == mu
    with pytest.raises(UnknownAtom):
        interval_representation(mu, order=[0])


def test_sup_distance_space_mismatch(two_point_space):
    from bottleneck_ot.errors import SpaceMismatch
    from bottleneck_ot.spaces import build_space

    other = build_space(["x", "y"], "euclidean", coords=[[0.0], [2.0]])
    rep_a = interval_representation(point_mass(two_point_space, 0))
    rep_b = interval_representation(point_mass(other, 0))
    with pytest.raises(SpaceMismatch):
        sup_distance(rep_a, rep_b)


def test_sup_distance_basics(two_point_space):
    rep_x = interval_representation(point_mass(two_point_space, 0))
    rep_y = interval_representation(point_mass(two_point_space, 1))
    assert sup_distance(rep_x, rep_x) == 0.0
    assert sup_distance(rep_x, rep_y) == two_point_space.d(0, 1)


def test_sup_distance_dominates_bottleneck_value():
    # Definition of the dynamical metric as an infimum over representations:
    # any concrete pair of representations can only overshoot.
    rng = random.Random(19)
    for _ in range(40):
        space = random_space(rng, 5)
        mu = random_probability_measure(rng, space, max_atoms=4)
        nu = random_probability_measure(rng, space, max_atoms=4)
        value = w_infinity(mu, nu).value
        for order_seed in range(3):
            order_rng = random.Random(order_seed)
            mu_order = sorted(mu.weights)
            nu_order = sorted(nu.weights)
            order_rng.shuffle(mu_order)
            order_rng.shuffle(nu_order)
            rep_mu = interval_representation(mu, order=mu_order)
            rep_nu = interval_representation(nu, order=nu_order)
            assert sup_distance(rep_mu, rep_nu) >= value - 1e-12
