import dataclasses
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from bottleneck_ot.errors import NotProbability, SolverInvariantError, SpaceMismatch, TooLarge, UnsupportedP
from bottleneck_ot.measures import make_measure, point_mass
from bottleneck_ot.spaces import build_space, hausdorff
from bottleneck_ot.transport import (
    TransportPlan,
    _Bipartite,
    _singleton_hall_bound,
    candidate_thresholds,
    certify,
    feasible_at_threshold,
    w_infinity,
    w_infinity_bruteforce,
    w_p,
    w_p_enumerate,
    w_p_plan,
)

from conftest import random_probability_measure, random_space


@pytest.fixture
def line():
    return build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])


def vanishing_atom_term(space, n):
    """mu_n = (1/n) delta_x + ((n-1)/n) delta_y."""
    return make_measure(space, [(0, Fraction(1, n)), (1, Fraction(n - 1, n))])


def test_feasibility_trivial_cases(line):
    mu = point_mass(line, 0)
    nu = point_mass(line, 1)
    assert feasible_at_threshold(mu, nu, 1.0)
    assert not feasible_at_threshold(mu, nu, 0.5)
    assert feasible_at_threshold(mu, mu, 0.0)


def test_feasibility_flips_at_hall_bound():
    # Two half-masses must both reach the single target; a far atom keeps the
    # distance set honest.
    space = build_space(["a", "b", "c", "far"], "euclidean",
                        coords=[[0.0], [1.0], [0.25], [10.0]])
    mu = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    nu = point_mass(space, 2)
    flip = max(space.d(0, 2), space.d(1, 2))
    assert not feasible_at_threshold(mu, nu, flip * 0.999)
    assert feasible_at_threshold(mu, nu, flip)


def test_feasibility_monotone_in_threshold():
    rng = random.Random(23)
    for _ in range(25):
        space = random_space(rng, 5)
        mu = random_probability_measure(rng, space, max_atoms=4)
        nu = random_probability_measure(rng, space, max_atoms=4)
        feasible_seen = False
        for t in candidate_thresholds(mu, nu):
            now = feasible_at_threshold(mu, nu, t)
            assert now or not feasible_seen
            feasible_seen = feasible_seen or now
        assert feasible_seen


def test_space_mismatch_rejected(line):
    other = build_space(["x", "y"], "euclidean", coords=[[0.0], [2.0]])
    with pytest.raises(SpaceMismatch):
        w_infinity(point_mass(line, 0), point_mass(other, 0))


def test_not_probability_rejected(line):
    half = make_measure(line, [(0, Fraction(1, 2))])
    with pytest.raises(NotProbability):
        w_infinity(half, point_mass(line, 0))


def test_w_infinity_identity_and_point_masses(line):
    mu = make_measure(line, [(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    assert w_infinity(mu, mu).value == 0.0
    assert w_infinity(point_mass(line, 0), point_mass(line, 1)).value == 1.0


def test_w_infinity_vanishing_atom_instance(line):
    # One-atom limit pins the bottleneck at d(x, y) no matter how little mass
    # sits at x.
    mu4 = vanishing_atom_term(line, 4)
    report = w_infinity(mu4, point_mass(line, 1))
    assert report.value == 1.0
    assert report.plan.bottleneck() == 1.0
    assert report.feasibility_calls <= report.thresholds_tested


def test_w_infinity_plan_is_exact_witness():
    rng = random.Random(5)
    for _ in range(40):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=5)
        nu = random_probability_measure(rng, space, max_atoms=5)
        report = w_infinity(mu, nu)
        assert report.plan.bottleneck() == report.value
        assert report.value in set(candidate_thresholds(mu, nu))


def test_thresholds_tested_counts_the_candidates_on_first_read():
    rng = random.Random(6)
    for _ in range(20):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=5)
        nu = random_probability_measure(rng, space, max_atoms=5)
        report = w_infinity(mu, nu)
        assert "thresholds_tested" not in vars(report)
        assert report.thresholds_tested == len(candidate_thresholds(mu, nu))
        assert "plan" not in vars(report)


def _reports(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=5)
        nu = random_probability_measure(rng, space, max_atoms=5)
        yield mu, nu, w_infinity(mu, nu)


def test_a_report_holds_the_measures_and_integer_cells_only():
    # No distance table, no network and no plan until the plan is read.
    for mu, nu, report in _reports(8, 20):
        fields = {f.name for f in dataclasses.fields(report)}
        assert fields == {"value", "feasibility_calls", "mu", "nu", "denom", "cells"}
        assert set(vars(report)) == fields
        assert type(report.value) is float
        assert type(report.feasibility_calls) is int and type(report.denom) is int
        assert report.mu is mu and report.nu is nu
        assert type(report.cells) is tuple and report.cells
        for cell in report.cells:
            assert type(cell) is tuple and len(cell) == 3
            assert all(type(x) is int for x in cell)


def test_a_replaced_report_builds_its_plan():
    for _, _, report in _reports(9, 10):
        moved = dataclasses.replace(report, value=0.0)
        assert moved.value == 0.0
        assert moved.plan.entries == report.plan.entries


def test_threads_reading_one_report_get_equal_plans():
    for mu, nu, report in _reports(10, 5):
        ready = threading.Barrier(4)

        def read(_):
            ready.wait()
            return report.plan.entries

        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(read, range(4)))
        assert all(entries == seen[0] for entries in seen)
        assert TransportPlan(mu, nu, seen[0]).bottleneck() == report.value


def test_w_infinity_searches_past_the_singleton_hall_bound():
    # Every single atom is covered within sqrt(2), but the two right-hand
    # sources (2/3 of the mass) reach only the 1/2 at (3, 0) there.
    cells = [(0, 0), (0, 1), (3, 0), (2, 1)]
    space = build_space(["a", "b", "c", "d"], "euclidean",
                        coords=[[float(x), float(y)] for x, y in cells])
    third = Fraction(1, 3)
    mu = make_measure(space, [(0, third), (2, third), (3, third)])
    nu = make_measure(space, [(0, Fraction(1, 6)), (1, third), (2, Fraction(1, 2))])
    assert _singleton_hall_bound(_Bipartite(mu, nu)) == space.d(2, 3) == 2 ** 0.5
    report = w_infinity(mu, nu)
    assert report.value == w_infinity_bruteforce(mu, nu) == space.d(1, 3) == 2.0
    # The probe at sqrt(2) fails with {c, d} on the source side of its min
    # cut; nu's mass within 2 of them covers their 2/3, so the second probe is
    # at the value.  Bisection over the thresholds above the bound takes 3.
    assert report.feasibility_calls == 2
    assert report.plan.bottleneck() == 2.0


def test_certify_reads_the_value_off_a_coupling_that_one_atom_forces():
    # Points at 0, 1 and 3 on a line; mu = (1/2, 0, 1/2), nu = (0, 1/2, 1/2).
    space = build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [1.0], [3.0]])
    half = Fraction(1, 2)
    mu = make_measure(space, [(0, half), (2, half)])
    nu = make_measure(space, [(1, half), (2, half)])
    # a -> b and c -> c: the longest cell is 1, and nu holds nothing within 1
    # of a, so a alone forces the value.
    report = certify(mu, nu, 2, [(0, 1, 1), (2, 2, 1)])
    assert (report.value, report.feasibility_calls) == (1.0, 0) == (w_infinity(mu, nu).value, 0)
    assert report.plan.entries == ((0, 1, half), (2, 2, half))
    # a -> c and c -> b moves 3: a coupling, but not an optimal one.
    assert certify(mu, nu, 2, [(0, 2, 1), (2, 1, 1)]) is None
    # Zero units are dropped; units off the support, or short of a marginal,
    # or masses that are no whole number of units, raise.
    assert certify(mu, nu, 2, [(0, 1, 1), (0, 2, 0), (2, 2, 1)]).cells == ((0, 1, 1), (2, 2, 1))
    for denom, cells in ((2, [(0, 1, 1), (2, 0, 1)]), (2, [(0, 1, 1)]), (3, [(0, 1, 1), (2, 2, 1)])):
        with pytest.raises(SolverInvariantError):
            certify(mu, nu, denom, cells)


def test_bruteforce_oracle_small_cases(line):
    assert w_infinity_bruteforce(point_mass(line, 0), point_mass(line, 1)) == 1.0
    mu4 = vanishing_atom_term(line, 4)
    assert w_infinity_bruteforce(mu4, point_mass(line, 1)) == 1.0


def test_bruteforce_oracle_cap():
    rng = random.Random(1)
    space = random_space(rng, 13)
    mu = make_measure(space, [(i, Fraction(1, 7)) for i in range(7)])
    nu = make_measure(space, [(i + 6, Fraction(1, 7)) for i in range(7)])
    with pytest.raises(TooLarge):
        w_infinity_bruteforce(mu, nu)


def test_solver_matches_bruteforce_oracle():
    rng = random.Random(99)
    for _ in range(120):
        space = random_space(rng, 7)
        mu = random_probability_measure(rng, space, max_atoms=4)
        nu = random_probability_measure(rng, space, max_atoms=4)
        assert w_infinity(mu, nu).value == w_infinity_bruteforce(mu, nu)


def test_metric_axioms_on_random_triples():
    rng = random.Random(41)
    for _ in range(60):
        space = random_space(rng, 7)
        eta = random_probability_measure(rng, space, max_atoms=6)
        mu = random_probability_measure(rng, space, max_atoms=6)
        nu = random_probability_measure(rng, space, max_atoms=6)
        d_em = w_infinity(eta, mu).value
        d_mn = w_infinity(mu, nu).value
        d_en = w_infinity(eta, nu).value
        assert d_em == w_infinity(mu, eta).value
        assert d_en <= d_em + d_mn + 1e-12
        assert (d_en == 0.0) == (eta == nu)


def test_hausdorff_support_bound():
    rng = random.Random(17)
    for _ in range(60):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=5)
        nu = random_probability_measure(rng, space, max_atoms=5)
        d_supp = hausdorff(space, mu.support(), nu.support())
        assert d_supp <= w_infinity(mu, nu).value + 1e-12


def test_w_p_validates_p(line):
    mu, nu = point_mass(line, 0), point_mass(line, 1)
    for solver in (w_p, w_p_plan, w_p_enumerate):
        with pytest.raises(UnsupportedP):
            solver(mu, nu, 3)
    with pytest.raises(TypeError):  # the min-cost flow is the only method
        w_p(mu, nu, 1, method="enumerate")
    assert w_p(mu, nu, 1) == w_p_enumerate(mu, nu, 1) == 1.0


def test_w_p_enumerate_cap():
    rng = random.Random(2)
    space = random_space(rng, 14)
    mu = make_measure(space, [(i, Fraction(1, 7)) for i in range(7)])
    nu = make_measure(space, [(i + 7, Fraction(1, 7)) for i in range(7)])
    with pytest.raises(TooLarge):
        w_p_enumerate(mu, nu, 1)


def test_w_p_identity_and_forced_plan(line):
    mu4 = vanishing_atom_term(line, 4)
    nu = point_mass(line, 1)
    assert w_p(mu4, mu4, 1) == 0.0
    value, plan = w_p_plan(mu4, nu, 1)
    assert value == pytest.approx(0.25, abs=1e-15)
    assert plan.cost(1) == pytest.approx(0.25, abs=1e-15)
    assert w_p(mu4, nu, 2) == pytest.approx(0.5, abs=1e-15)


def test_w_p_flow_matches_vertex_enumeration():
    rng = random.Random(61)
    for _ in range(30):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=4)
        nu = random_probability_measure(rng, space, max_atoms=4)
        for p in (1, 2):
            flow_value, plan = w_p_plan(mu, nu, p)
            enum_value = w_p_enumerate(mu, nu, p)
            assert flow_value == pytest.approx(enum_value, abs=1e-10)
            assert plan.cost(p) == pytest.approx(flow_value, abs=1e-10)


def test_w_p_below_bottleneck_and_equal_for_point_masses():
    rng = random.Random(77)
    for _ in range(40):
        space = random_space(rng, 6)
        mu = random_probability_measure(rng, space, max_atoms=5)
        nu = random_probability_measure(rng, space, max_atoms=5)
        winf = w_infinity(mu, nu).value
        for p in (1, 2):
            assert w_p(mu, nu, p) <= winf + 1e-12
    x = point_mass(space, 0)
    y = point_mass(space, 1)
    for p in (1, 2):
        assert w_p(x, y, p) == pytest.approx(w_infinity(x, y).value, abs=1e-12)


def test_w_2_stays_finite_where_the_squared_distance_overflows():
    # 1e200 ** 2 is past the float range, yet W2 of two point masses at
    # distance 1e200 is 1e200, and a half-and-half split gives 1e200 / sqrt 2.
    far = 1e200
    space = build_space(["x", "y", "z"], "explicit-matrix",
                        matrix=[[0.0, far, far], [far, 0.0, 1.0], [far, 1.0, 0.0]])
    x, y = point_mass(space, 0), point_mass(space, 1)
    value, plan = w_p_plan(x, y, 2)
    assert value == w_p(x, y, 2) == plan.cost(2) == far
    half = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    value, plan = w_p_plan(half, point_mass(space, 1), 2)
    assert value == pytest.approx(far / 2 ** 0.5, rel=1e-15)
    assert plan.cost(2) == pytest.approx(value, rel=1e-15)
    assert w_p(half, point_mass(space, 2), 1) == pytest.approx((far + 1.0) / 2, rel=1e-15)


def test_w_p_separates_from_bottleneck_on_vanishing_atom(line):
    # W_p shrinks with n while the bottleneck value stays put: the two
    # topologies are genuinely different.
    nu = point_mass(line, 1)
    previous = None
    for n in (2, 4, 8, 16):
        mu = vanishing_atom_term(line, n)
        assert w_infinity(mu, nu).value == 1.0
        value = w_p(mu, nu, 1)
        assert value == pytest.approx(1.0 / n, abs=1e-12)
        if previous is not None:
            assert value < previous
        previous = value


def test_plan_marginal_validation(line):
    mu = make_measure(line, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    nu = point_mass(line, 1)
    with pytest.raises(ValueError):
        TransportPlan(mu, nu, ((0, 1, Fraction(1, 2)),))
    plan = TransportPlan(
        mu, nu, ((0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2)))
    )
    assert plan.bottleneck() == 1.0


def test_epsilon_net_snapping_moves_value_by_at_most_epsilon():
    # Finite-support density, realized constructively: snapping both measures
    # to an epsilon-net changes the bottleneck value by at most the snap radius
    # on each side (triangle inequality through the snapped measures).
    from bottleneck_ot.measures import pushforward
    from conftest import random_probability_weights

    rng = random.Random(13)
    for _ in range(20):
        n = 8
        coords = [[rng.random(), rng.random()] for _ in range(n)]
        eps = 0.25
        net: list[tuple[float, float]] = []
        snap = {}
        for i, xy in enumerate(coords):
            target = tuple(round(c / eps) * eps for c in xy)
            if target not in net:
                net.append(target)
            snap[i] = n + net.index(target)
        ids = [f"p{i}" for i in range(n)] + [f"s{i}" for i in range(len(net))]
        space = build_space(ids, "euclidean", coords=coords + [list(t) for t in net])
        snap.update({n + k: n + k for k in range(len(net))})

        def raw_measure():
            k = rng.randint(1, 4)
            atoms = rng.sample(range(n), k)
            return make_measure(space, list(zip(atoms, random_probability_weights(rng, k))))

        mu_raw, nu_raw = raw_measure(), raw_measure()
        before = w_infinity(mu_raw, nu_raw).value
        after = w_infinity(
            pushforward(mu_raw, snap), pushforward(nu_raw, snap)
        ).value
        # Each atom moves at most (eps/2) * sqrt(2) in the plane.
        bound = eps * (2 ** 0.5) / 2
        assert abs(after - before) <= 2 * bound + 1e-12
