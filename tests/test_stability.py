import itertools
import math
import random
from fractions import Fraction

import pytest

from bottleneck_ot.errors import EmptySet, MalformedInput, NotInvariant, NotInvariantMeasure, UnknownAtom
from bottleneck_ot.measures import make_measure, point_mass
from bottleneck_ot.spaces import build_space, hausdorff
from bottleneck_ot.stability import (
    STABLE,
    UNSTABLE,
    LiftedSet,
    MapSystem,
    dist_to_lift,
    measure_from_frozen,
    probe_asymptotic,
    probe_attractor,
    probe_exponential,
    probe_lyapunov,
    probe_measure_lyapunov,
    scenario_sink_source,
    scenario_torus_shear,
)
from bottleneck_ot.transport import w_infinity

from conftest import random_probability_measure, random_space


def dist_to_lift_bruteforce(mu, atoms, denominator=8):
    """Solver-backed minimum over a weight grid of measures supported on atoms."""
    atoms = sorted(atoms)
    best = math.inf
    for split in itertools.combinations_with_replacement(range(len(atoms)), denominator):
        weights = [Fraction(split.count(k), denominator) for k in range(len(atoms))]
        nu = make_measure(mu.space, list(zip(atoms, weights)))
        best = min(best, w_infinity(mu, nu).value)
    return best


@pytest.fixture(scope="module")
def eight_point_space():
    rng = random.Random(2024)
    return random_space(rng, 8)


def test_dist_to_lift_trivial_cases(eight_point_space):
    space = eight_point_space
    mu = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert dist_to_lift(mu, [0, 1]) == 0.0
    assert dist_to_lift(point_mass(space, 0), [3]) == space.d(0, 3)
    two_atom = make_measure(space, [(2, Fraction(1, 4)), (5, Fraction(3, 4))])
    assert dist_to_lift(two_atom, [7]) == max(space.d(2, 7), space.d(5, 7))
    with pytest.raises(EmptySet):
        dist_to_lift(mu, [])


def test_dist_to_lift_point_mass_identity_everywhere(eight_point_space):
    # The anchor identity: distance from a point mass to a lift is the
    # point-to-set distance, for every point and every small set.
    space = eight_point_space
    for x in range(8):
        for size in (1, 2, 3):
            for V in itertools.combinations(range(8), size):
                assert dist_to_lift(point_mass(space, x), V) == space.set_distance(x, V)


def test_dist_to_lift_closed_form_matches_grid_bruteforce(eight_point_space):
    space = eight_point_space
    rng = random.Random(5)
    for _ in range(12):
        support = rng.sample(range(8), rng.randint(1, 3))
        weights = [Fraction(1, 8)] * len(support)
        weights[0] += Fraction(8 - len(support), 8)
        mu = make_measure(space, list(zip(support, weights)))
        A = rng.sample(range(8), rng.randint(1, 3))
        assert dist_to_lift(mu, A) == dist_to_lift_bruteforce(mu, A)


def test_lift_hausdorff_identity(eight_point_space):
    # The Hausdorff distance between two lifts equals that of the base sets.
    # Each lift's farthest measure from the other lift is a point mass, so the
    # lifted side is the largest solver-backed distance from a point mass of
    # one set to the lift of the other; the two must agree bit for bit.
    space = eight_point_space
    rng = random.Random(9)
    pairs = [([0, 1], [0, 1]), ([0], [1])]
    pairs += [(rng.sample(range(8), rng.randint(1, 3)), rng.sample(range(8), 3))
              for _ in range(20)]
    for U, V in pairs:
        lifted = max(
            max(dist_to_lift_bruteforce(point_mass(space, u), V, denominator=4) for u in U),
            max(dist_to_lift_bruteforce(point_mass(space, v), U, denominator=4) for v in V),
        )
        assert hausdorff(space, U, V) == lifted, (U, V)


def test_lift_algebra_membership(eight_point_space):
    space = eight_point_space
    A = LiftedSet(space, frozenset({0, 1, 2}))
    B = LiftedSet(space, frozenset({0, 1, 2, 3}))
    rng = random.Random(3)
    for _ in range(20):
        nu = random_probability_measure(rng, space, max_atoms=3)
        inside_a = nu.support() <= A.atoms
        assert A.contains(nu) == inside_a
        if A.contains(nu):
            assert B.contains(nu)  # A within B lifts to containment
    # Intersection of lifts is the lift of the intersection.
    C = LiftedSet(space, frozenset({2, 3, 4}))
    both = A.atoms & C.atoms
    for _ in range(20):
        nu = random_probability_measure(rng, space, max_atoms=2)
        assert (A.contains(nu) and C.contains(nu)) == (nu.support() <= both)
    # Point-set distance characterizes containment of the base sets.
    assert all(dist_to_lift(point_mass(space, x), B.atoms) == 0.0 for x in A.atoms)
    for _ in range(20):
        nu = random_probability_measure(rng, space, max_atoms=3)
        assert C.distance(nu) == max(space.set_distance(x, C.atoms) for x in nu.support())
        assert (C.distance(nu) == 0.0) == C.contains(nu)
    with pytest.raises(EmptySet):
        LiftedSet(space, frozenset())


def test_pushforward_of_lift_is_lift_of_image(eight_point_space):
    space = eight_point_space
    rng = random.Random(6)
    mapping = [rng.randrange(8) for _ in range(8)]
    system = MapSystem.build(space, mapping)
    A = frozenset({0, 3, 5})
    image = system.image_of_set(A)
    for _ in range(25):
        nu = random_probability_measure(rng, space, max_atoms=3)
        if nu.support() <= A:
            assert system.push(nu).support() <= image
    for y in image:
        x = next(a for a in A if mapping[a] == y)
        assert system.push(point_mass(space, x)) == point_mass(space, y)


def test_neighborhood_correspondence(eight_point_space):
    # Distance to the lift below eps iff the support sits inside the open
    # eps-neighborhood: exact on finite spaces.
    space = eight_point_space
    rng = random.Random(12)
    A = [1, 4]
    for _ in range(30):
        nu = random_probability_measure(rng, space, max_atoms=4)
        eps = rng.choice([0.2, 0.4, 0.8])
        inside = nu.support() <= space.neighborhood(A, eps)
        assert (dist_to_lift(nu, A) < eps) == inside


def test_map_system_n_applications_on_a_cycle():
    space = build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [1.0], [2.0]])
    system = MapSystem.build(space, [1, 2, 0])
    assert system.apply_point(0, 0) == 0
    assert system.apply_point(0, 2) == 2
    assert system.image_of_set([0, 1], 0) == frozenset({0, 1})
    assert system.image_of_set([0, 1], 2) == frozenset({2, 0})
    mu = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert system.push(mu, 0) == mu
    assert system.push(mu, 3) == mu


def test_map_system_n_applications_are_n_single_steps():
    # Each single step is spelled out from the mapping table, apart from the
    # methods under test.
    rng = random.Random(12)
    space = random_space(rng, 30, dim=1)
    system = MapSystem.build(space, [rng.randrange(30) for _ in range(30)])
    f = system.mapping
    mu = random_probability_measure(rng, space, max_atoms=5)
    atoms = frozenset(rng.sample(range(30), 6))
    x, S, nu = 7, atoms, mu
    for n in range(41):
        assert system.apply_point(7, n) == x, n
        assert system.image_of_set(atoms, n) == S, n
        assert system.push(mu, n) == nu, n
        x, S = f[x], frozenset(f[a] for a in S)
        nu = make_measure(space, [(f[a], w) for a, w in nu.weights.items()])
    for method, arg in ((system.apply_point, 7), (system.image_of_set, atoms),
                        (system.push, mu)):
        with pytest.raises(ValueError, match="n >= 0"):
            method(arg, -1)


def test_identity_map_is_lyapunov_stable_everywhere():
    rng = random.Random(1)
    space = random_space(rng, 6)
    system = MapSystem.build(space, list(range(6)))
    grid = [space.diameter() / 8, space.diameter() / 4]
    report = probe_lyapunov(system, {0, 1}, grid, grid, horizon=5,
                            probes_per_cell=2, seed=0)
    assert report.verdict == STABLE
    mu = random_probability_measure(rng, space, max_atoms=3)
    m_report = probe_measure_lyapunov(system, mu, grid, horizon=5,
                                      probes_per_cell=2, seed=0)
    assert m_report.verdict == STABLE


def test_probe_requires_invariance():
    space = build_space(["a", "b"], "euclidean", coords=[[0.0], [1.0]])
    system = MapSystem.build(space, [1, 1])
    with pytest.raises(NotInvariant):
        probe_lyapunov(system, {0}, [0.5], [0.5], 3, 1)
    moving = point_mass(space, 0)
    with pytest.raises(NotInvariantMeasure):
        probe_measure_lyapunov(system, moving, [0.5], 3, 1)


def test_sink_source_scenario_basics():
    sc = scenario_sink_source(6, 1.0)
    system = sc.system
    # Sink and source are fixed; every basin point drains to the sink.
    assert system.apply_point(sc.sink) == sc.sink
    assert system.apply_point(sc.source) == sc.source
    for k in range(1, 7):
        assert system.apply_point(k, n=k) == sc.sink
    for eps in (Fraction(1, 8), Fraction(1, 4)):
        mu_eps = sc.mu_eps(eps)
        assert system.is_fixed_measure(mu_eps)
        assert w_infinity(mu_eps, sc.delta_sink).value == sc.d_xy


def test_sink_source_point_set_lyapunov_stable():
    sc = scenario_sink_source(4, 1.0)
    report = probe_lyapunov(
        sc.system, {sc.sink}, sc.default_delta_grid, sc.default_delta_grid,
        horizon=10, probes_per_cell=2, seed=0,
    )
    assert report.verdict == STABLE


def test_sink_source_set_lyapunov_cells_touching_source_fail_but_small_deltas_win():
    # Large-delta cells reach the source and their probes never come back;
    # the per-epsilon verdict stays stable because a small delta works.
    sc = scenario_sink_source(4, 1.0)
    report = probe_lyapunov(
        sc.system, {sc.sink}, [0.5], [0.125, 1.0], horizon=8,
        probes_per_cell=2, seed=0,
    )
    assert report.verdict == STABLE
    source_probes = [
        r for r in report.records
        if r.label.startswith("delta1/") and r.sup_distance == sc.d_xy
    ]
    assert source_probes, "some large-delta probe should touch the source"


def test_source_set_lyapunov_unstable_once_grid_resolves_the_basin():
    sc = scenario_sink_source(4, 1.0)
    gap = sc.system.space.min_positive_gap()
    report = probe_lyapunov(
        sc.system, {sc.source}, [gap, 2 * gap], [gap, 2 * gap], horizon=10,
        probes_per_cell=2, seed=0,
    )
    assert report.verdict == UNSTABLE
    # The escaping probe starts a single grid step away and drains toward the
    # sink, ending a full diameter from the source.
    assert report.witness.distances[0] <= gap
    assert report.witness.sup_distance == sc.d_xy


def test_set_lyapunov_inconclusive_when_grid_cannot_resolve_epsilon():
    sc = scenario_sink_source(4, 1.0)
    gap = sc.system.space.min_positive_gap()
    report = probe_lyapunov(
        sc.system, {sc.source}, [gap / 4], [gap], horizon=6,
        probes_per_cell=1, seed=0,
    )
    assert report.verdict == "Inconclusive"


def test_sink_source_measure_lyapunov_unstable_via_named_family():
    sc = scenario_sink_source(6, 1.0)
    report = probe_measure_lyapunov(
        sc.system, sc.delta_sink, sc.default_delta_grid, horizon=12,
        probes_per_cell=2, seed=0, extra_probes=sc.extra_probes("sink"),
    )
    assert report.verdict == UNSTABLE
    assert report.witness.label.startswith("extra/mu_eps")
    assert report.witness.sup_distance == sc.d_xy


def test_unstable_witness_is_replayable():
    sc = scenario_sink_source(6, 1.0)
    report = probe_measure_lyapunov(
        sc.system, sc.delta_sink, sc.default_delta_grid, horizon=12,
        probes_per_cell=2, seed=0, extra_probes=sc.extra_probes("sink"),
    )
    witness = report.witness
    probe = measure_from_frozen(sc.system.space, witness.weights)
    replayed = w_infinity(
        sc.system.push(probe, witness.argmax_step), sc.delta_sink
    ).value
    assert replayed == witness.sup_distance


def test_sink_source_asymptotic_basin_converges_source_does_not():
    sc = scenario_sink_source(5, 1.0)
    basin_eps = 0.5  # reaches basin points but not the source
    report = probe_asymptotic(sc.system, {sc.sink}, basin_eps, horizon=10,
                              probes=3, seed=0)
    assert report.verdict == STABLE
    full = probe_asymptotic(sc.system, {sc.sink}, 1.0, horizon=10,
                            probes=3, seed=0)
    assert full.verdict == UNSTABLE
    assert min(full.witness.distances) == sc.d_xy


def test_identity_map_asymptotic_fails_off_set():
    space = build_space(["a", "b"], "euclidean", coords=[[0.0], [1.0]])
    system = MapSystem.build(space, [0, 1])
    report = probe_asymptotic(system, {0}, 1.0, horizon=4, probes=1, seed=0)
    assert report.verdict == UNSTABLE


def test_attractor_identity_full_space():
    space = build_space(["a", "b"], "euclidean", coords=[[0.0], [1.0]])
    system = MapSystem.build(space, [0, 1])
    report = probe_attractor(system, {0, 1}, eps=2.0, n_max=3)
    assert report.verdict == STABLE


def test_attractor_sink_yes_source_no():
    sc = scenario_sink_source(4, 1.0)
    sink_report = probe_attractor(sc.system, {sc.sink}, eps=0.5, n_max=8)
    assert sink_report.verdict == STABLE
    assert sink_report.params["intersection"] == [sc.sink]
    source_report = probe_attractor(sc.system, {sc.source}, eps=0.3, n_max=8)
    assert source_report.verdict == UNSTABLE


def test_attractor_escape_when_neighborhood_never_reenters():
    # A fixed point next to a 3-cycle: the small neighborhood cycles through
    # the other points and never maps back into itself within the budget.
    space = build_space(["a", "b", "c", "d"], "euclidean",
                        coords=[[0.0], [1.0], [2.0], [3.0]])
    system = MapSystem.build(space, [0, 2, 3, 1])
    report = probe_attractor(system, {0}, eps=1.5, n_max=2)
    assert report.verdict == UNSTABLE
    assert any("no n <=" in note for note in report.notes)


def test_scenario_validation():
    with pytest.raises(MalformedInput):
        scenario_sink_source(0)
    with pytest.raises(MalformedInput):
        scenario_torus_shear(7)
    with pytest.raises(MalformedInput):
        scenario_torus_shear(2)


def test_exponential_halving_line():
    # Points at 2^-k step one index inward per application: distances halve.
    ids = [f"p{k}" for k in range(7)]
    coords = [[0.0]] + [[2.0 ** -(k - 1)] for k in range(1, 7)]
    space = build_space(ids, "euclidean", coords=coords)
    mapping = [0, 2, 3, 4, 5, 6, 0]
    system = MapSystem.build(space, mapping)
    report = probe_exponential(system, {0}, eps=1.5, delta_grid=[1.1],
                               horizon=4)
    assert report.verdict == STABLE
    fit = report.params["fits"]["1.1"]
    assert fit["lambda"] == pytest.approx(math.log(2.0), rel=1e-6)
    assert fit["r2"] >= 0.99


def test_exponential_one_step_collapse():
    space = build_space(["a", "b"], "euclidean", coords=[[0.0], [1.0]])
    system = MapSystem.build(space, [0, 0])
    report = probe_exponential(system, {0}, eps=2.0, delta_grid=[1.5], horizon=4)
    assert report.verdict == STABLE
    assert report.params["fits"]["1.5"]["collapsed"]


def test_exponential_records_the_hausdorff_distance_of_each_image():
    # Step n of a record is d_H(A, f^n(U)), 0.0 once the image is A itself.
    ids = [f"p{k}" for k in range(7)]
    coords = [[0.0]] + [[2.0 ** -(k - 1)] for k in range(1, 7)]
    space = build_space(ids, "euclidean", coords=coords)
    system = MapSystem.build(space, [0, 2, 3, 4, 5, 6, 0])
    report = probe_exponential(system, {0}, eps=1.5, delta_grid=[0.3, 1.1], horizon=7)
    for record in report.records:
        U = [a for a, _, _ in record.weights]
        expected = [hausdorff(space, {0}, system.image_of_set(U, n)) for n in range(8)]
        assert list(record.distances) == expected
        assert record.distances[-1] == 0.0


def test_map_system_build_takes_a_sequence_of_images():
    space = build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [1.0], [2.0]])
    assert MapSystem.build(space, (2, 2, 0)).mapping == (2, 2, 0)
    with pytest.raises(ValueError, match="cover every point"):
        MapSystem.build(space, [0, 1])
    with pytest.raises(UnknownAtom):
        MapSystem.build(space, [0, 1, 3])


def test_exponential_rotation_not_exponential():
    # A 4-cycle at constant distance from the fixed point: Hausdorff distance
    # never decays.
    ids = ["c", "r0", "r1", "r2", "r3"]
    coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    space = build_space(ids, "euclidean", coords=coords)
    system = MapSystem.build(space, [0, 2, 3, 4, 1])
    report = probe_exponential(system, {0}, eps=1.5, delta_grid=[1.2], horizon=6)
    assert report.verdict == UNSTABLE


def test_torus_scenario_geometry():
    sc = scenario_torus_shear(8)
    space = sc.system.space
    assert space.n_points == 64
    assert space.d(sc.atom(0, 0), sc.atom(0, 1)) == pytest.approx(1 / 8, abs=1e-15)
    assert space.d(sc.atom(0, 0), sc.atom(4, 0)) == pytest.approx(0.5, abs=1e-15)
    # Row 0 is pointwise fixed; row j rotates by j columns per step.
    assert sc.system.apply_point(sc.atom(3, 0)) == sc.atom(3, 0)
    assert sc.system.apply_point(sc.atom(3, 2)) == sc.atom(5, 2)


def test_torus_row_measures_are_invariant():
    sc = scenario_torus_shear(8)
    for j in (0, 1):
        assert sc.system.is_fixed_measure(sc.uniform_row(j))
    # Any row-0 measure is fixed pointwise.
    assert sc.system.is_fixed_measure(sc.lopsided_row(0))


def test_torus_uniform_row_perturbation_stays_at_row_gap():
    sc = scenario_torus_shear(8)
    lam0 = sc.uniform_row(0)
    lam1 = sc.uniform_row(1)
    for n in range(9):
        value = w_infinity(sc.system.push(lam1, n), lam0).value
        assert value == pytest.approx(1 / 8, abs=0.0)


def test_torus_lopsided_perturbation_explodes_at_half_turn():
    sc = scenario_torus_shear(8)
    nu0 = sc.lopsided_row(0)
    nu1 = sc.lopsided_row(1)
    halfway = w_infinity(sc.system.push(nu1, 4), nu0).value
    assert halfway > 2 / 8
    back = w_infinity(sc.system.push(nu1, 8), nu0).value
    assert back == pytest.approx(1 / 8, abs=0.0)


def test_measure_lyapunov_solves_each_sampled_probe_once(monkeypatch):
    # The delta-ball check of a sampled probe is its orbit's step 0: one
    # solve per orbit step, the extra probes included, and none more.
    from bottleneck_ot import stability

    sc = scenario_torus_shear(8)
    solved = []

    def counted(m, target):
        solved.append(m)
        return w_infinity(m, target)

    monkeypatch.setattr(stability, "w_infinity", counted)
    report = probe_measure_lyapunov(
        sc.system, sc.uniform_row(0), list(sc.default_delta_grid), horizon=3,
        probes_per_cell=2, seed=0, extra_probes=[("uniform_row1", sc.uniform_row(1))],
    )
    assert len(solved) == 4 * len(report.records)
    monkeypatch.undo()
    for record in report.records:
        probe = measure_from_frozen(sc.system.space, record.weights)
        assert record.distances[0] == w_infinity(probe, sc.uniform_row(0)).value


def test_torus_measure_lyapunov_uniform_stable_lopsided_excursion():
    # At the coarse 8-grid the uniform row absorbs its row-1 copy at the row
    # gap forever, while the lopsided row's copy wanders to twice that during
    # the half turn.  (The resolution where the excursion beats the allowance
    # and flips the verdict is the 32-grid, exercised in the acceptance suite.)
    sc = scenario_torus_shear(8)
    lam0 = sc.uniform_row(0)
    report = probe_measure_lyapunov(
        sc.system, lam0, list(sc.default_delta_grid), horizon=8,
        probes_per_cell=2, seed=0,
        extra_probes=[("uniform_row1", sc.uniform_row(1))],
    )
    assert report.verdict == STABLE
    uniform_extra = next(r for r in report.records if r.label == "extra/uniform_row1")
    assert uniform_extra.sup_distance == pytest.approx(1 / 8, abs=0.0)
    nu0 = sc.lopsided_row(0)
    lopsided = probe_measure_lyapunov(
        sc.system, nu0, list(sc.default_delta_grid), horizon=8,
        probes_per_cell=2, seed=0,
        extra_probes=[("lopsided_row1", sc.lopsided_row(1))],
    )
    lopsided_extra = next(
        r for r in lopsided.records if r.label == "extra/lopsided_row1"
    )
    assert lopsided_extra.sup_distance > 2 / 8
    assert lopsided_extra.distances[0] == pytest.approx(1 / 8, abs=0.0)


def test_torus32_measure_lyapunov_verdicts():
    # At the 32-grid the quarter-circumference excursion dominates the
    # allowance: the uniform row is stable at resolution, the lopsided row is
    # refuted by its own row-1 copy.
    sc = scenario_torus_shear(32)
    lam0 = sc.uniform_row(0)
    report = probe_measure_lyapunov(
        sc.system, lam0, list(sc.default_delta_grid), horizon=16,
        probes_per_cell=1, seed=0,
        extra_probes=[("uniform_row1", sc.uniform_row(1))],
    )
    assert report.verdict == STABLE
    nu0 = sc.lopsided_row(0)
    lopsided = probe_measure_lyapunov(
        sc.system, nu0, list(sc.default_delta_grid), horizon=16,
        probes_per_cell=1, seed=0,
        extra_probes=[("lopsided_row1", sc.lopsided_row(1))],
    )
    assert lopsided.verdict == UNSTABLE
    assert lopsided.witness.exceeded()
    row1_extra = next(
        r for r in lopsided.records if r.label == "extra/lopsided_row1"
    )
    assert row1_extra.sup_distance > 0.2


def test_torus_set_lyapunov_row_zero_stable():
    sc = scenario_torus_shear(8)
    row0 = set(sc.row_atoms(0))
    grid = list(sc.default_delta_grid)
    report = probe_lyapunov(sc.system, row0, grid, grid, horizon=8,
                            probes_per_cell=2, seed=0)
    assert report.verdict == STABLE


def test_extreme_point_probes_dominate_measure_probes():
    # Measure probes never exceed the worst point probe over their support,
    # and point probes reproduce the point orbit exactly.
    sc = scenario_sink_source(4, 1.0)
    system = sc.system
    A = {sc.sink}
    rng = random.Random(7)
    space = system.space
    for _ in range(10):
        nu = random_probability_measure(rng, space, max_atoms=3)
        for n in range(6):
            pushed = system.push(nu, n)
            measure_dist = dist_to_lift(pushed, A)
            point_dists = [
                space.set_distance(system.apply_point(x, n), A)
                for x in nu.support()
            ]
            assert measure_dist == max(point_dists)


def test_trace_csv_shape():
    sc = scenario_sink_source(3, 1.0)
    report = probe_measure_lyapunov(
        sc.system, sc.delta_sink, sc.default_delta_grid, horizon=3,
        probes_per_cell=1, seed=0,
    )
    lines = report.trace_csv().strip().splitlines()
    assert lines[0] == "n,probe,distance"
    assert len(lines) == 1 + len(report.records) * 4
