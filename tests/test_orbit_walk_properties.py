"""Property tests: the lift probes walk supports, and the attractor walks the
images of its neighborhood once.

Every lift-probe record (lyapunov, asymptotic, and the attractor's witness)
must equal the record of the reference walk, which pushes the probe's measure
step by step and applies ``LiftedSet.distance`` to each push.  Every attractor
report must equal that of the two-loop algorithm kept below as the oracle:
one loop finds the first n with f^n(U) inside U, a second walks U's images to
their first repeat for the forward intersection.

The systems are sink/source lines, permutations and random non-injective
maps; the target sets are forward closures, so they are invariant.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot.spaces import build_space
from bottleneck_ot.stability import (
    STABLE,
    UNSTABLE,
    LiftedSet,
    MapSystem,
    ProbeRecord,
    StabilityReport,
    measure_from_frozen,
    probe_asymptotic,
    probe_attractor,
    probe_lyapunov,
    scenario_sink_source,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(("sink_source", "permutation", "random")))
    if kind == "sink_source":
        return scenario_sink_source(draw(st.integers(1, 6))).system
    positions = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    n = len(positions)
    space = build_space([f"p{i}" for i in range(n)], "euclidean",
                        coords=[[float(v)] for v in positions])
    if kind == "permutation":
        mapping = draw(st.permutations(range(n)))
    else:
        mapping = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return MapSystem.build(space, mapping)


@st.composite
def targets(draw):
    """(system, invariant set, radii): radii hit pairwise distances exactly,
    fall between them, and reach past the diameter."""
    system = draw(systems())
    space = system.space
    start = draw(st.sets(st.integers(0, space.n_points - 1), min_size=1))
    A = frozenset(start)
    while not system.image_of_set(A) <= A:
        A |= system.image_of_set(A)
    distances = sorted({space.d(i, j) for i in range(space.n_points)
                        for j in range(space.n_points)} - {0.0})
    radii = distances + [d + 0.5 for d in distances] + [0.5, space.diameter() + 1.0]
    return system, A, draw(st.lists(st.sampled_from(radii), min_size=1, max_size=3))


def push_walk(system: MapSystem, lift: LiftedSet, record: ProbeRecord, horizon: int) -> ProbeRecord:
    """The record of the probe's measure, pushed step by step."""
    mu = measure_from_frozen(system.space, record.weights)
    distances = []
    for _ in range(horizon + 1):
        distances.append(lift.distance(mu))
        mu = system.push(mu)
    sup = max(distances)
    return ProbeRecord(record.label, record.seed, record.weights, tuple(distances),
                       sup, distances.index(sup), record.allowance)


def oracle_attractor(system: MapSystem, A, eps: float, n_max: int) -> StabilityReport:
    """The two-loop attractor check, with its witness walked by pushes."""
    A = frozenset(A)
    space = system.space
    U = space.neighborhood(A, eps)
    reentry = None
    for n in range(1, n_max + 1):
        if system.image_of_set(U, n) <= U:
            reentry = n
            break
    seen: dict[frozenset, int] = {}
    images = []
    current = U
    while True:
        current = system.image_of_set(current)
        if current in seen:
            break
        seen[current] = len(images)
        images.append(current)
    intersection = frozenset(range(space.n_points))
    for img in images:
        intersection &= img
    notes = [
        "measure-level verdict transfers through the lift identities "
        "(pushforward of a lift is the lift of the image)",
    ]
    if reentry is None:
        point = min(system.image_of_set(U, n_max) - U, default=min(U))
        label = f"escape/point{point}"
        notes.append(f"no n <= {n_max} with f^n(U) inside U")
    elif intersection != A:
        point = min(intersection ^ A)
        label = f"intersection/point{point}"
        notes.append("forward intersection of the neighborhood differs from the set")
    else:
        label = None
        notes.append(f"f^{reentry}(U) inside U; forward intersection equals the set")
    witness = None if label is None else push_walk(
        system, LiftedSet(space, A), ProbeRecord(label, None, ((point, 1, 1),), (), 0.0, 0), n_max
    )
    return StabilityReport(
        notion="attractor",
        params={"set": sorted(A), "eps": eps, "n_max": n_max,
                "neighborhood": sorted(U), "reentry": reentry,
                "intersection": sorted(intersection)},
        verdict=STABLE if witness is None else UNSTABLE,
        witness=witness,
        records=(),
        notes=tuple(notes),
    )


@PROPERTY_SETTINGS
@given(target=targets(), horizon=st.integers(0, 8), seed=st.integers(0, 50))
def test_lift_probe_records_equal_push_walks(target, horizon, seed):
    system, A, radii = target
    lift = LiftedSet(system.space, A)
    lyapunov = probe_lyapunov(system, A, radii, radii, horizon, 2, seed)
    asymptotic = probe_asymptotic(system, A, max(radii), horizon, 2, seed)
    attractor = probe_attractor(system, A, max(radii), horizon)
    records = lyapunov.records + asymptotic.records
    records += (attractor.witness,) if attractor.witness is not None else ()
    assert records
    for record in records:
        assert record == push_walk(system, lift, record, horizon)


@PROPERTY_SETTINGS
@given(target=targets())
def test_attractor_reports_equal_the_two_loop_oracle(target):
    system, A, radii = target
    for eps in radii:
        for n_max in range(7):
            assert probe_attractor(system, A, eps, n_max) == oracle_attractor(system, A, eps, n_max)


def test_attractor_escape_point_past_the_walk_of_images():
    # U = {a, b} never re-enters: b falls into the 2-cycle c <-> d, so U's
    # images alternate {a, c}, {a, d}, and f^n(U) for n past the walk is read
    # back by whole periods.
    space = build_space(["a", "b", "c", "d"], "euclidean", coords=[[0.0], [1.0], [5.0], [6.0]])
    system = MapSystem.build(space, [0, 2, 3, 2])
    for n_max in range(7):
        report = probe_attractor(system, {0}, 1.5, n_max)
        assert report == oracle_attractor(system, {0}, 1.5, n_max)
        assert report.witness.label == ("escape/point0" if n_max == 0 else
                                        f"escape/point{2 if n_max % 2 else 3}")
