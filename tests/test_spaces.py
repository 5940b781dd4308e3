import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from bottleneck_ot.errors import EmptySet, MetricViolation
from bottleneck_ot.fileio import parse_space, space_to_obj
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import _euclidean, _flat_torus, build_space, hausdorff, same_space
from bottleneck_ot.stability import _hausdorff_to, _torus_scenario_cached, scenario_torus_shear
from bottleneck_ot.transport import w_infinity

from conftest import random_space


def line_space(coords):
    return build_space([f"x{i}" for i in range(len(coords))], "euclidean",
                       coords=[[c] for c in coords])


def test_two_points_on_a_line():
    space = line_space([0.0, 1.0])
    assert space.d(0, 1) == 1.0


def test_flat_torus_wraparound():
    space = build_space(["a", "b"], "flat-torus", coords=[[0.0, 0.0], [0.9, 0.0]])
    assert space.d(0, 1) == pytest.approx(0.1, abs=1e-15)


def test_explicit_matrix_accepted_and_rejected():
    ok = build_space(["a", "b"], "explicit-matrix", matrix=[[0, 1], [1, 0]])
    assert ok.d(0, 1) == 1.0
    with pytest.raises(MetricViolation):
        build_space(["a", "b"], "explicit-matrix", matrix=[[0, 1], [2, 0]])


def test_matrix_validation_catches_diagonal_and_triangle():
    with pytest.raises(MetricViolation):
        build_space(["a", "b"], "explicit-matrix", matrix=[[1, 1], [1, 0]])
    with pytest.raises(MetricViolation):
        build_space(
            ["a", "b", "c"],
            "explicit-matrix",
            matrix=[[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        )


@pytest.mark.parametrize("far", [float("inf"), 1e200], ids=["inf", "1e200"])
def test_matrix_triangle_check_survives_a_far_point(far):
    # d(a, c) = 100 > d(a, b) + d(b, c) = 2, beside a fourth point far from
    # all three: its entries must not widen the slack of the small triangle.
    matrix = [[0, 1, 100, far], [1, 0, 1, far], [100, 1, 0, far], [far, far, far, 0]]
    with pytest.raises(MetricViolation, match=r"triangle failure: d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        build_space(["a", "b", "c", "d"], "explicit-matrix", matrix=matrix)
    matrix[0][2] = matrix[2][0] = 2
    assert build_space(["a", "b", "c", "d"], "explicit-matrix", matrix=matrix).d(0, 3) == far


def test_negative_zero_matrix_entries_are_stored_as_zero():
    space = build_space(["a", "b"], "explicit-matrix", matrix=[[-0.0, 1.0], [1.0, -0.0]])
    assert [math.copysign(1.0, space.d(i, i)) for i in range(2)] == [1.0, 1.0]
    assert math.copysign(1.0, hausdorff(space, [0], [0])) == 1.0


def test_hausdorff_directed_example():
    space = line_space([0.0, 1.0])
    assert hausdorff(space, [0], [0]) == 0.0
    assert hausdorff(space, [0], [1]) == 1.0
    # d(A, B) = 0 but d(B, A) = 1 when A = {x}, B = {x, y}
    assert hausdorff(space, [0], [0, 1]) == 1.0


def test_hausdorff_rejects_empty():
    space = line_space([0.0, 1.0])
    with pytest.raises(EmptySet):
        hausdorff(space, [], [0])


def test_hausdorff_is_a_metric_on_small_spaces():
    rng = random.Random(7)
    space = random_space(rng, 5)
    subsets = [frozenset(s) for r in range(1, 6)
               for s in itertools.combinations(range(5), r)]
    for A in subsets:
        assert hausdorff(space, A, A) == 0.0
        for B in subsets:
            ab = hausdorff(space, A, B)
            assert ab == hausdorff(space, B, A)
            if A != B:
                assert ab > 0.0
    for A in subsets:
        for B in subsets:
            for C in subsets:
                assert hausdorff(space, A, C) <= (
                    hausdorff(space, A, B) + hausdorff(space, B, C) + 1e-12
                )


def test_distance_csv_round_shape():
    space = line_space([0.0, 0.5, 1.0])
    lines = space.distance_csv().strip().splitlines()
    assert lines[0] == ",x0,x1,x2"
    assert len(lines) == 4
    assert lines[1].startswith("x0,0,")


def _pairwise(space):
    """The reference: every entry from the pairwise rule, as the dense matrix
    was built before rows were computed on demand."""
    fn = _euclidean if space.metric_rule == "euclidean" else _flat_torus
    return [[fn(a, b) for b in space.coords] for a in space.coords]


def _bits(values):
    return [float(v).hex() for v in values]


def _random_coords(rng, n, dim, trial):
    """Uniform coordinates on alternate trials; otherwise drawn from a small
    pool, so columns repeat values, with negatives and values outside [0, 1)."""
    if trial % 2 == 0:
        scale = rng.choice([1.0, 7.5, 1e-3])
        return [[rng.uniform(-scale, scale) for _ in range(dim)] for _ in range(n)]
    pool = [rng.uniform(-3.0, 3.0) for _ in range(3)] + [0.0, -0.0, 1.0, -1.25]
    points = {tuple(rng.choice(pool) for _ in range(dim)) for _ in range(n)}
    return [list(p) for p in sorted(points)]


def _assert_extent_matches(space, reference):
    upper = [e for i, row in enumerate(reference) for e in row[i + 1:]]
    if upper:
        assert space.min_positive_gap() == min(upper)
        assert space.diameter() == max(upper)


@pytest.mark.parametrize("rule", ["euclidean", "flat-torus"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_rows_are_bit_identical_to_the_pairwise_rule(rule, dim):
    rng = random.Random(31 * dim + len(rule))
    for trial in range(6):
        coords = _random_coords(rng, rng.randint(2, 24), dim, trial)
        n = len(coords)
        # Distinct pool points can coincide on the torus, which validation rejects.
        validate = trial == 2 or (trial == 3 and rule == "euclidean")
        space = build_space([f"p{i}" for i in range(n)], rule, coords=coords, validate=validate)
        reference = _pairwise(space)
        for i in range(n):
            assert _bits(space.row(i)) == _bits(reference[i])
            assert space.row(i) is space.row(i)  # memoised, not recomputed
            assert all(space.d(i, j) == reference[i][j] for j in range(n))
        _assert_extent_matches(space, reference)


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_torus_scenario_rows_are_bit_identical_to_the_pairwise_rule(n):
    space = scenario_torus_shear(n).system.space
    assert space.matrix is None
    coords = space.coords
    rng = random.Random(n)
    rows = range(n * n) if n == 16 else [0, n - 1, n * n - 1] + rng.sample(range(n * n), 5)
    for i in rows:
        assert _bits(space.row(i)) == _bits(_flat_torus(coords[i], c) for c in coords)
    if n == 16:
        _assert_extent_matches(space, _pairwise(space))


def test_zero_dimensional_coordinates_give_zero_rows():
    single = build_space(["only"], "euclidean", coords=[[]])
    assert list(single.row(0)) == [0.0] == [_euclidean((), ())]
    pair = build_space(["a", "b"], "flat-torus", coords=[[], []], validate=False)
    assert list(pair.row(1)) == [0.0, 0.0]


def test_two_term_overflow_is_raised_as_by_fsum():
    # Two finite squares whose sum overflows: fsum raises, a + b would give inf.
    coords = [[1.2e154, 1.2e154], [0.0, 0.0]]
    with pytest.raises(OverflowError):
        _euclidean(*coords)
    with pytest.raises(MetricViolation, match=r"distance overflow in row 0$"):
        build_space(["a", "b"], "euclidean", coords=coords)
    space = build_space(["a", "b"], "euclidean", coords=coords, validate=False)
    with pytest.raises(OverflowError):
        space.row(1)
    # An infinite difference squares to inf, which fsum returns without raising.
    coords = [[1.7e308, 0.0], [-1.7e308, 0.0]]
    assert _euclidean(*coords) == float("inf")
    with pytest.raises(MetricViolation, match=r"distance overflow at \(0, 1\)"):
        build_space(["a", "b"], "euclidean", coords=coords)
    space = build_space(["a", "b"], "euclidean", coords=coords, validate=False)
    assert list(space.row(0)) == [0.0, float("inf")]


def test_gap_and_diameter_equal_the_all_pairs_formula():
    rng = random.Random(5)
    spaces = [
        build_space([f"p{i}" for i in range(n)], rule,
                    coords=[[rng.random() for _ in range(dim)] for _ in range(n)])
        for n, rule, dim in ((2, "euclidean", 1), (9, "euclidean", 3), (17, "flat-torus", 2))
    ]
    spaces.append(build_space(["a", "b", "c"], "explicit-matrix",
                              matrix=[[0, 2, 3], [2, 0, 4], [3, 4, 0]]))
    for space in spaces:
        n = space.n_points
        upper = [space.d(i, j) for i in range(n) for j in range(i + 1, n)]
        if space.coords is not None:
            assert upper == [e for i, row in enumerate(_pairwise(space)) for e in row[i + 1:]]
        assert space.min_positive_gap() == min(upper)
        assert space.diameter() == max(upper)
        assert space.min_positive_gap() == min(upper)  # the memoised value
    single = build_space(["only"], "euclidean", coords=[[0.5]])
    assert single.min_positive_gap() == 0.0 and single.diameter() == 0.0


def test_distances_to_is_the_minimum_over_the_set():
    rng = random.Random(8)
    space = build_space([f"p{i}" for i in range(12)], "flat-torus",
                        coords=[[rng.random(), rng.random()] for _ in range(12)])
    for size in (1, 2, 5):
        atoms = rng.sample(range(12), size)
        to_set = space.distances_to(atoms)
        assert to_set == [space.set_distance(x, atoms) for x in range(12)]
        assert space.neighborhood(atoms, 0.3) == {x for x in range(12) if to_set[x] < 0.3}
        assert space.neighborhood(atoms, to_set[0], closed=True) >= {0}
    with pytest.raises(EmptySet):
        space.distances_to([])


def _test_spaces(seed):
    """Coordinate spaces of both rules in dimensions 1-4, with uniform and
    with repeated coordinate values (torus values outside [0, 1) included),
    and two explicit matrices."""
    rng = random.Random(seed)
    out = []
    for rule in ("euclidean", "flat-torus"):
        for dim in (1, 2, 3, 4):
            for trial in (0, 1):
                coords = _random_coords(rng, rng.randint(1, 14), dim, trial)
                out.append(build_space([f"p{i}" for i in range(len(coords))], rule,
                                       coords=coords, validate=False))
    out.append(build_space(["a", "b", "c", "d"], "explicit-matrix",
                           matrix=[[0, 2, 3, 2], [2, 0, 4, 1], [3, 4, 0, 3], [2, 1, 3, 0]]))
    out.append(build_space(["a", "b", "c"], "explicit-matrix",
                           matrix=[[0, 0.1, 0.3], [0.1, 0, 0.2], [0.3, 0.2, 0]]))
    return rng, out


def test_neighborhood_equals_the_comprehension_over_distances_to():
    rng, spaces = _test_spaces(13)
    for space in spaces:
        n = space.n_points
        entries = sorted({space.d(i, j) for i in range(n) for j in range(n)})
        radii = entries + [(a + b) / 2 for a, b in zip(entries, entries[1:])]
        radii += [Fraction(r) for r in radii] + [0, 1, 2, Fraction(1, 3), Fraction(3, 2)]
        for size in (1, 2, 3):
            atoms = rng.sample(range(n), min(size, n))
            to_set = space.distances_to(atoms)
            for eps in radii:
                assert space.neighborhood(atoms, eps) == frozenset(
                    x for x, d in enumerate(to_set) if d < eps)
                assert space.neighborhood(atoms, eps, closed=True) == frozenset(
                    x for x, d in enumerate(to_set) if d <= eps)
    with pytest.raises(EmptySet):
        spaces[0].neighborhood([], 1.0)


def test_hausdorff_from_one_vector_equals_spaces_hausdorff():
    rng, spaces = _test_spaces(17)
    for space in spaces:
        n = space.n_points
        for _ in range(6):
            A = rng.sample(range(n), rng.randint(1, n))
            to_A = _hausdorff_to(space, A)
            for size in {1, 2, n}:
                S = frozenset(rng.sample(range(n), min(size, n)))
                assert to_A(S).hex() == hausdorff(space, A, S).hex()


def test_same_space_truth_table():
    ids = ["a", "b", "c"]
    coords = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
    space = build_space(ids, "euclidean", coords=coords)
    assert same_space(space, space)
    assert same_space(space, parse_space(space_to_obj(space)))
    matrix = [[space.d(i, j) for j in range(3)] for i in range(3)]
    copy = build_space(ids, "explicit-matrix", matrix=matrix)
    assert same_space(space, copy) and same_space(copy, space)
    # Equal labels, other coordinates: equal only when every distance is.
    moved = build_space(ids, "euclidean", coords=[[x + 1.0, y] for x, y in coords])
    assert moved.coords != space.coords
    assert same_space(space, moved)
    assert not same_space(space, build_space(ids, "euclidean", coords=[[0.0, 0.0], [3.0, 0.0], [0.0, 5.0]]))
    assert not same_space(space, build_space(["a", "b", "d"], "euclidean", coords=coords))
    torus = build_space(ids, "flat-torus", coords=[[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]])
    assert not same_space(space, torus)


def test_coordinate_vectors_are_checked_when_the_space_is_built():
    with pytest.raises(MetricViolation, match="length"):
        build_space(["a", "b"], "euclidean", coords=[[0.0, 5.0], [1.0]])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(MetricViolation, match="non-finite"):
            build_space(["a", "b"], "flat-torus", coords=[[0.0], [bad]], validate=False)
    with pytest.raises(MetricViolation, match="overflow"):
        build_space(["a", "b"], "euclidean", coords=[[1e200], [-1e200]])
    with pytest.raises(MetricViolation, match="overflow"):
        build_space(["a", "b"], "euclidean", coords=[[1.7e308], [-1.7e308]])
    with pytest.raises(MetricViolation, match="overflow"):
        build_space(["a", "b"], "flat-torus", coords=[[1.7e308], [-1.7e308]])
    with pytest.raises(MetricViolation, match="non-positive"):
        build_space(["a", "b", "c"], "euclidean", coords=[[0.0], [1.0], [0.0]])


def test_neighborhoods_and_solves_from_threads_match_serial_runs():
    n = 16

    def work(scenario, row):
        space = scenario.system.space
        atoms = scenario.row_atoms(row)
        hoods = [sorted(space.neighborhood(atoms, k / n, closed=bool(k % 2))) for k in (1, 2, 3)]
        mu = scenario.uniform_row(row)
        nu = make_measure(space, [(scenario.atom(i + row, row + 1), w)
                                  for i, (_, w) in enumerate(sorted(mu.weights.items()))])
        report = w_infinity(scenario.lopsided_row(row), nu)
        return hoods, report.value, report.plan.entries

    _torus_scenario_cached.cache_clear()
    serial = [work(scenario_torus_shear(n), row) for row in range(4)]
    _torus_scenario_cached.cache_clear()
    shared = scenario_torus_shear(n)
    assert all(row is None for row in shared.system.space._rows)
    results = [None] * 4

    def run(k):
        results[k] = work(shared, k)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
