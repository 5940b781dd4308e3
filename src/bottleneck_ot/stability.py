"""Stability probes for pushforward dynamics on measures.

A finite map system induces a dynamical system on probability measures via the
pushforward.  Sets of points lift to sets of measures (all measures supported
inside the set); the bottleneck distance from a measure to a lift has the
closed form max over support atoms of the point-to-set distance, which ties
point-level and measure-level stability together.

Stability verdicts are resolution-qualified: probes are sampled at the tested
perturbation sizes, witnesses are exact and replayable, and a "stable" verdict
never claims more than the grids it was given.

Each orbit figure is read once, exactly.  The set probes compute the vector
of distances to A once, in their ``LiftedSet``, and read every neighborhood
of A from it.  The lift probes read their records from one table of point
orbits (a sampled probe's is the elementwise maximum of its atoms' columns);
the exponential probe reads each Hausdorff distance from the same vector and
the rows of A; the measure-level probe certifies an orbit step by the pushed
coupling of the step before (``transport.certify``) and solves only where
that fails; and the attractor reads its neighborhood per cycle of points,
never walking whole periods of sets.

``cli stability`` reads a scenario through one protocol: ``system``,
``default_delta_grid``, ``default_horizon``, ``measure(name)`` and
``atom_set(token)`` (None for a name the scenario does not know), and
``extra_probes(measure_name)``, the labelled perturbations added around that
measure (``measure_name`` is None for a measure read from a file).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import attrgetter, itemgetter, le, lt

from .errors import EmptySet, MalformedInput, NotInvariant, NotInvariantMeasure, SolverInvariantError
from .flows import scale_masses
from .measures import DiscreteMeasure, make_measure, point_mass, pushforward
# The probes read Hausdorff distances through ``_hausdorff_to``; ``hausdorff``
# is bound here for the benchmark's span recorder (perfbench/spans.py), which
# times it under this name.
from .spaces import FiniteMetricSpace, build_space, hausdorff  # noqa: F401
from .transport import SolveReport, certify, w_infinity

STABLE = "StableAtResolution"
UNSTABLE = "UnstableWitness"
INCONCLUSIVE = "Inconclusive"
R2_FLOOR = 0.99  # the least r^2 of a log-linear decay fit that counts as geometric


def _steps(n: int) -> range:
    """The n single steps of an n-fold application."""
    if n < 0:
        raise ValueError("iterates are defined for n >= 0")
    return range(n)


@dataclass(frozen=True)
class MapSystem:
    """A total map on a finite space; ``n`` applications are n single steps."""

    space: FiniteMetricSpace
    mapping: tuple  # mapping[i] is the image atom of atom i

    @classmethod
    def build(cls, space: FiniteMetricSpace, mapping) -> "MapSystem":
        """``mapping`` is a sequence: ``mapping[i]`` is the image of atom i."""
        if len(mapping) != space.n_points:
            raise ValueError("mapping must cover every point")
        return cls(space, tuple(space.check_atom(mapping[i]) for i in range(space.n_points)))

    def apply_point(self, atom: int, n: int = 1) -> int:
        for _ in _steps(n):
            atom = self.mapping[atom]
        return atom

    def image_of_set(self, atoms, n: int = 1) -> frozenset:
        image = frozenset(atoms)
        for _ in _steps(n):
            image = frozenset(map(self.mapping.__getitem__, image))
        return image

    def push(self, mu: DiscreteMeasure, n: int = 1) -> DiscreteMeasure:
        for _ in _steps(n):
            mu = pushforward(mu, self.mapping.__getitem__)
        return mu

    def is_invariant_set(self, atoms) -> bool:
        atoms = frozenset(atoms)
        return self.image_of_set(atoms) <= atoms

    def is_fixed_measure(self, mu: DiscreteMeasure) -> bool:
        return self.push(mu) == mu


@dataclass(frozen=True)
class LiftedSet:
    """The set of all probability measures supported inside ``atoms``.

    d(x, atoms) is read once for every point x, from the rows of the atoms.
    The Hausdorff distance between two lifts is that of their base sets, so
    set-level distances need no lift; the test suite checks the identity
    against the solver.
    """

    space: FiniteMetricSpace
    atoms: frozenset
    _to_set: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise EmptySet("a lift needs a nonempty base set")
        object.__setattr__(self, "_to_set", self.space.distances_to(self.atoms))

    def contains(self, mu: DiscreteMeasure) -> bool:
        return mu.support() <= self.atoms

    def distance(self, mu: DiscreteMeasure) -> float:
        """Bottleneck distance from ``mu`` to the lift."""
        return self.support_distance(mu.weights)

    def support_distance(self, atoms) -> float:
        """Bottleneck distance to the lift from any measure whose support is
        ``atoms``.

        Closed form: the farthest support atom decides, because every atom's
        mass must travel into the set and nothing caps how the set's measures
        spread.  Checked against the solver in the test suite.
        """
        return max(map(self._to_set.__getitem__, atoms))

    def neighborhood(self, r, closed: bool = False) -> frozenset:
        """``space.neighborhood(atoms, r, closed)``, read from the distances
        the lift already holds with the same comparisons."""
        to_set = self._to_set
        return frozenset(compress(range(len(to_set)), map(le if closed else lt, to_set, repeat(r))))


def dist_to_lift(mu: DiscreteMeasure, atoms) -> float:
    """Bottleneck distance from a measure to the lift of a set."""
    return LiftedSet(mu.space, frozenset(atoms)).distance(mu)


def _invariant_target(system: MapSystem, A) -> frozenset:
    """``A`` as a frozenset, which a probe needs to satisfy f(A) within A."""
    A = frozenset(A)
    if not system.is_invariant_set(A):
        raise NotInvariant("probe target must satisfy f(A) within A")
    return A


@dataclass(frozen=True)
class ProbeRecord:
    label: str
    seed: int | None
    weights: tuple  # ((atom, numerator, denominator), ...)
    distances: tuple  # distance per step 0..horizon
    sup_distance: float
    argmax_step: int
    allowance: float | None = None

    def exceeded(self) -> bool:
        return self.allowance is not None and self.sup_distance > self.allowance


@dataclass(frozen=True)
class StabilityReport:
    notion: str
    params: dict
    verdict: str
    witness: ProbeRecord | None
    records: tuple
    notes: tuple = field(default_factory=tuple)

    def trace_csv(self) -> str:
        lines = ["n,probe,distance"]
        for record in self.records:
            for n, dist in enumerate(record.distances):
                lines.append(f"{n},{record.label},{dist:.12g}")
        return "\n".join(lines) + "\n"


def _freeze_weights(mu: DiscreteMeasure) -> tuple:
    return tuple(
        (a, w.numerator, w.denominator) for a, w in sorted(mu.weights.items())
    )


def measure_from_frozen(space: FiniteMetricSpace, frozen) -> DiscreteMeasure:
    return make_measure(space, [(a, Fraction(n, d)) for a, n, d in frozen])


def _random_weights(rng: random.Random, n_atoms: int) -> list:
    denominator = rng.choice([4, 8, 16])
    while denominator < n_atoms:
        denominator *= 2
    cuts = sorted(rng.sample(range(1, denominator), n_atoms - 1)) if n_atoms > 1 else []
    bounds = [0] + cuts + [denominator]
    return [Fraction(bounds[k + 1] - bounds[k], denominator) for k in range(n_atoms)]


def _record(label: str, seed: int | None, weights: tuple, distances,
            allowance: float | None = None) -> ProbeRecord:
    """The record of a probe of frozen ``weights`` whose orbit is at
    ``distances`` at steps 0..horizon."""
    distances = tuple(distances)
    sup = max(distances)
    return ProbeRecord(
        label=label,
        seed=seed,
        weights=weights,
        distances=distances,
        sup_distance=sup,
        argmax_step=distances.index(sup),
        allowance=allowance,
    )


def _orbit_record(step, start, horizon: int, distance_fn, label: str,
                  seed: int | None, weights: tuple,
                  allowance: float | None = None) -> ProbeRecord:
    """The record of the orbit of ``start`` under ``step``: ``distance_fn`` at
    steps 0..horizon, for the probe of frozen ``weights``."""
    distances = []
    current = start
    for n in range(horizon + 1):
        distances.append(distance_fn(current))
        if n < horizon:
            current = step(current)
    return _record(label, seed, weights, distances, allowance)


def _child_seed(seed: int, d_idx: int, k: int) -> int:
    """The seed of sample k in the cell of the d_idx-th delta."""
    return seed * 1_000_003 + d_idx * 1_009 + k


def _lift_records(system: MapSystem, lift: LiftedSet, candidates, samples: int,
                  seed: int | None, horizon: int, d_idx: int = 0, prefix: str = ""):
    """Records of lift probes: a point mass at each candidate, then ``samples``
    measures of one to three candidate atoms, each drawn from its own seed.

    The candidates are walked once, one ``mapping`` gather per step, into a
    table of their distances to the lift at steps 0..horizon; a point probe's
    record is its candidate's column.  supp(f#mu) is f(supp mu), because
    pushed weights stay positive, and the lift distance is a maximum over the
    support, so a sampled probe's record is the elementwise maximum of its
    atoms' columns.
    """
    if samples and not candidates:
        raise EmptySet("no point within the probe radius to sample from")
    pool = sorted(candidates)
    to_lift = lift._to_set.__getitem__
    step = system.mapping.__getitem__
    table = []
    orbit = pool
    for n in range(horizon + 1):
        table.append(list(map(to_lift, orbit)))
        if n < horizon:
            orbit = list(map(step, orbit))
    columns = dict(zip(pool, zip(*table)))
    for x in pool:
        yield _record(f"{prefix}point{x}", None, ((x, 1, 1),), columns[x])
    for k in range(samples):
        child_seed = _child_seed(seed, d_idx, k)
        rng = random.Random(child_seed)
        size = rng.randint(1, min(3, len(pool)))
        atoms = rng.sample(pool, size)
        mu = make_measure(system.space, list(zip(atoms, _random_weights(rng, size))))
        yield _record(f"{prefix}sample{k}", child_seed, _freeze_weights(mu),
                      map(max, *(columns[a] for a in atoms)) if size > 1 else columns[atoms[0]])


def probe_lyapunov(system: MapSystem, A, eps_grid, delta_grid, horizon: int,
                   probes_per_cell: int, seed: int = 0) -> StabilityReport:
    """Point-set Lyapunov probe: do small lift-neighborhoods stay inside each
    epsilon over the horizon?  Stable per epsilon when some tested delta works."""
    A = _invariant_target(system, A)
    space = system.space
    lift = LiftedSet(space, A)
    records = []
    cell_worst: dict[float, ProbeRecord] = {}
    for d_idx, delta in enumerate(sorted(delta_grid)):
        for record in _lift_records(system, lift, lift.neighborhood(delta, closed=True),
                                    probes_per_cell, seed, horizon, d_idx, f"delta{delta:.6g}/"):
            records.append(record)
            worst = cell_worst.get(delta)
            if worst is None or record.sup_distance > worst.sup_distance:
                cell_worst[delta] = record
    per_eps = {}
    escapes = {}
    for eps in sorted(eps_grid):
        winners = [d for d in cell_worst if cell_worst[d].sup_distance <= eps]
        if winners:
            # Some tested perturbation size keeps every probe inside eps.
            per_eps[eps] = ("stable", min(winners))
            continue
        # A probe that starts inside eps and later leaves is a dynamical
        # escape: it refutes every delta large enough to admit it.  Probes
        # that start beyond eps prove nothing about this eps.
        escape = next(
            (r for r in records
             if r.distances[0] <= eps and r.sup_distance > eps),
            None,
        )
        if escape is not None:
            per_eps[eps] = ("unstable", None)
            escapes[eps] = escape
        else:
            per_eps[eps] = ("inconclusive", None)
    statuses = [status for status, _ in per_eps.values()]
    if all(s == "stable" for s in statuses):
        verdict, witness = STABLE, None
    elif "unstable" in statuses:
        verdict = UNSTABLE
        witness = escapes[min(escapes)]
    else:
        verdict, witness = INCONCLUSIVE, None
    return StabilityReport(
        notion="lyapunov",
        params={
            "set": sorted(A), "eps_grid": sorted(eps_grid),
            "delta_grid": sorted(delta_grid), "horizon": horizon,
            "probes_per_cell": probes_per_cell, "seed": seed,
            "per_eps": {f"{e:.12g}": s for e, (s, _) in per_eps.items()},
        },
        verdict=verdict,
        witness=witness,
        records=tuple(records),
    )


def _random_neighbor(rng: random.Random, space, a: int, delta) -> int:
    targets = sorted(space.neighborhood([a], delta, closed=True))
    if not targets:
        raise EmptySet(f"no point within delta={delta!r} of atom {a}")
    return rng.choice(targets)


def _support_translation_probe(rng: random.Random, space, mu, delta):
    """mu with each atom moved to a random point within delta: (probe, the
    coupling of that move, as (probe atom, mu atom, mass) cells)."""
    moves = [(_random_neighbor(rng, space, a, delta), a, w) for a, w in sorted(mu.weights.items())]
    return make_measure(space, [(z, w) for z, _, w in moves]), moves


def _weight_leak_probe(rng: random.Random, space, mu, delta):
    """mu with a share of one atom's mass moved to a random point within
    delta: (probe, the coupling of that move, as in the translation probe)."""
    atoms = sorted(mu.weights)
    a = rng.choice(atoms)
    z = _random_neighbor(rng, space, a, delta)
    share = Fraction(rng.randint(1, 3), 4)
    moved = mu.weights[a] * share
    adjusted = dict(mu.weights)
    adjusted[a] = adjusted[a] - moved
    coupling = [(x, x, w) for x, w in adjusted.items()] + [(z, a, moved)]
    adjusted[z] = adjusted.get(z, Fraction(0)) + moved
    return make_measure(space, adjusted.items()), coupling


def _in_units(coupling) -> tuple:
    """(denom, cells): (a, b, mass) cells as whole units of 1/denom, the
    common denominator of the masses, one cell per pair."""
    denom, (units,) = scale_masses([mass for _, _, mass in coupling])
    cells: dict = {}
    for (a, b, _), u in zip(coupling, units):
        cells[a, b] = cells.get((a, b), 0) + u
    return denom, tuple((a, b, u) for (a, b), u in cells.items())


def _pushed_cells(mapping, cells) -> tuple:
    """The cells of a coupling pushed by (f x f): the coupling of the two
    pushed measures, one cell per pair."""
    pushed: dict = {}
    for a, b, u in cells:
        key = (mapping[a], mapping[b])
        pushed[key] = pushed.get(key, 0) + u
    return tuple((a, b, u) for (a, b), u in pushed.items())


def probe_measure_lyapunov(system: MapSystem, mu: DiscreteMeasure, delta_grid,
                           horizon: int, probes_per_cell: int, seed: int = 0,
                           extra_probes=()) -> StabilityReport:
    """Measure-level Lyapunov probe around a fixed measure of the pushforward.

    Sampled probes stay within each tested delta in the bottleneck metric
    (support translations and local mass leaks, verified by the solver).  The
    ``extra_probes`` hook injects named perturbation families regardless of
    their bottleneck distance — e.g. a tiny mass leaked onto a fixed point far
    away, which is weak*-small yet permanently displaced; orbits exceeding the
    per-delta allowance are reported as exact witnesses.

    Each orbit step is exact, and most need no solve.  A coupling of nu and
    mu pushed by (f x f) couples f#nu with f#mu = mu, so the last step's
    optimal cells, pushed, are offered to ``certify``; ``w_infinity`` runs
    only where it cannot prove them optimal.  A sampled probe offers the
    coupling it was built from the same way, for its delta-ball check.
    """
    if not system.is_fixed_measure(mu):
        raise NotInvariantMeasure("the probed measure must be a pushforward fixed point")
    space = system.space
    gap = space.min_positive_gap()
    deltas = sorted(delta_grid)

    def solved(m, denom, cells) -> SolveReport:
        report = certify(m, mu, denom, cells)
        return report if report is not None else w_infinity(m, mu)

    def step(report: SolveReport) -> SolveReport:
        return solved(system.push(report.mu), report.denom,
                      _pushed_cells(system.mapping, report.cells))

    def probes():
        """(probe, label, seed, allowance, its step-0 report); a sample is
        drawn just before its orbit, and its delta-ball check is its orbit's
        step 0."""
        for d_idx, delta in enumerate(deltas):
            for k in range(probes_per_cell):
                child_seed = _child_seed(seed, d_idx, k)
                maker = _support_translation_probe if k % 2 == 0 else _weight_leak_probe
                probe, coupling = maker(random.Random(child_seed), space, mu, delta)
                report = solved(probe, *_in_units(coupling))
                if not report.value <= delta + 1e-12:
                    raise SolverInvariantError("sampled probe escaped its delta ball")
                label = f"delta{delta:.6g}/{maker.__name__.strip('_')}{k}"
                yield probe, label, child_seed, 2.0 * (delta + gap), report
        extra_allowance = 2.0 * ((deltas[-1] if deltas else gap) + gap)
        for label, probe in extra_probes:
            yield probe, f"extra/{label}", None, extra_allowance, w_infinity(probe, mu)

    records = [
        _orbit_record(step, report, horizon, attrgetter("value"), label, child_seed,
                      _freeze_weights(probe), allowance)
        for probe, label, child_seed, allowance, report in probes()
    ]
    witness = next((record for record in records if record.exceeded()), None)
    return StabilityReport(
        notion="measure-lyapunov",
        params={
            "measure": [(a, f"{w}") for a, w in sorted(mu.weights.items())],
            "delta_grid": deltas, "horizon": horizon,
            "probes_per_cell": probes_per_cell, "seed": seed,
            "allowance_rule": "2*(delta + min positive gap)",
        },
        verdict=UNSTABLE if witness is not None else STABLE,
        witness=witness,
        records=tuple(records),
        notes=(
            "sampled probes obey w_infinity(probe, measure) <= delta; "
            "extra probes are evaluated against the largest-delta allowance",
        ),
    )


def probe_asymptotic(system: MapSystem, A, eps: float, horizon: int,
                     probes: int, seed: int = 0, tol: float = 0.0) -> StabilityReport:
    """Do all orbits started in the eps-lift-neighborhood fall back into the lift?"""
    A = _invariant_target(system, A)
    lift = LiftedSet(system.space, A)
    records = tuple(_lift_records(system, lift, lift.neighborhood(eps, closed=True),
                                  probes, seed, horizon))
    witness = next((record for record in records if min(record.distances) > tol), None)
    return StabilityReport(
        notion="asymptotic",
        params={"set": sorted(A), "eps": eps, "horizon": horizon,
                "probes": probes, "seed": seed, "tol": tol},
        verdict=UNSTABLE if witness is not None else STABLE,
        witness=witness,
        records=records,
    )


def _orbit_shapes(mapping, starts) -> tuple:
    """(tail, period): for every point x reached from ``starts``, tail[x] is
    the number of steps it takes to reach a cycle of the map, and period[x]
    the length of that cycle.  Each point is walked once."""
    tail: dict = {}
    period: dict = {}
    for x in starts:
        path, at = [], {}
        while x not in tail and x not in at:
            at[x] = len(path)
            path.append(x)
            x = mapping[x]
        if x in at:  # the walk closed a cycle, from path[at[x]] on
            cycle = path[at[x]:]
            del path[at[x]:]
            for y in cycle:
                tail[y], period[y] = 0, len(cycle)
        for y in reversed(path):
            tail[y], period[y] = tail[x] + 1, period[x]
            x = y
    return tail, period


def _whole_cycles(mapping, points) -> frozenset:
    """The points of ``points``, all on cycles of the map, whose whole cycle
    is in ``points``."""
    kept = set(points)
    for y in points:
        if y in kept and mapping[y] not in points:  # y's cycle leaves the set
            x = y
            while True:
                kept.discard(x)
                x = mapping[x]
                if x == y:
                    break
    return frozenset(kept)


def _advance(mapping, x: int, n: int, tail: int, period: int) -> int:
    """f^n(x) for a point ``tail`` steps from a cycle of length ``period``:
    whole turns of the cycle are skipped."""
    if n > tail:
        n = tail + (n - tail) % period
    for _ in range(n):
        x = mapping[x]
    return x


def probe_attractor(system: MapSystem, A, eps: float, n_max: int) -> StabilityReport:
    """Exact attractor check: the neighborhood must re-enter itself and its
    forward intersection must come back to exactly A."""
    A = _invariant_target(system, A)
    lift = LiftedSet(system.space, A)
    U = lift.neighborhood(eps)
    if not U:
        raise EmptySet(f"no point within eps={eps!r} of the set")
    mapping = system.mapping
    tail, period = _orbit_shapes(mapping, U)
    # Every point of U is on its cycle after T steps.  The forward
    # intersection is that of f^1(U)..f^T(U), kept to the cycles that f^T(U)
    # holds whole: on a cycle it holds only in part, the images turn, and
    # each of its points drops out of one of them.
    T = max(1, max(tail[x] for x in U))
    image = intersection = system.image_of_set(U)
    for _ in range(T - 1):
        image = system.image_of_set(image)
        intersection &= image
    intersection &= _whole_cycles(mapping, image)
    # From step T on the images repeat every P steps, so the first re-entry,
    # if there is one, comes by step T + P.
    P = math.lcm(*(period[x] for x in U))
    reentry = None
    image = U
    for n in range(1, min(n_max, T + P) + 1):
        image = system.image_of_set(image)
        if image <= U:
            reentry = n
            break
    notes = [
        "measure-level verdict transfers through the lift identities "
        "(pushforward of a lift is the lift of the image)",
    ]
    if reentry is None:
        # f^n_max(U), point by point: down the tail, then around the cycle.
        far = {_advance(mapping, x, n_max, tail[x], period[x]) for x in U}
        point = min(far - U, default=min(U))
        prefix = "escape/"
        notes.append(f"no n <= {n_max} with f^n(U) inside U")
    elif intersection != A:
        point = min(intersection ^ A)
        prefix = "intersection/"
        notes.append("forward intersection of the neighborhood differs from the set")
    else:
        prefix = None
        notes.append(f"f^{reentry}(U) inside U; forward intersection equals the set")
    witness = None if prefix is None else next(
        _lift_records(system, lift, [point], 0, None, n_max, prefix=prefix)
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


def _log_linear_fit(points):
    xs = [float(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y, 1.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _hausdorff_to(lift: LiftedSet):
    """The function S -> d_H(A, S) for the base set A of ``lift``, equal to
    ``spaces.hausdorff(space, A, S)`` by ``float.hex`` (maxima and minima of
    the same entries are exact): the larger of the farthest point of S from
    A, read from the lift's vector of distances to A, and the farthest point
    of A from S, read from the rows of A.  One gather of S's entries per
    vector."""
    to_A = lift._to_set
    rows_A = [lift.space.row(a) for a in lift.atoms]

    def to(S) -> float:
        if len(S) == 1:  # itemgetter returns a bare value for one item
            (x,) = S
            return max(to_A[x], max(row[x] for row in rows_A))
        gather = itemgetter(*S)
        return max(max(gather(to_A)), max(min(gather(row)) for row in rows_A))

    return to


def probe_exponential(system: MapSystem, A, eps: float, delta_grid,
                      horizon: int) -> StabilityReport:
    """Fit a decay rate to the Hausdorff distance of shrinking closed
    neighborhoods; stable when every tested neighborhood decays geometrically."""
    A = _invariant_target(system, A)
    lift = LiftedSet(system.space, A)
    hausdorff_to_A = _hausdorff_to(lift)
    fits = {}
    witness = None
    records = []
    stable = True
    for delta in sorted(delta_grid):
        if delta >= eps:
            continue
        U = lift.neighborhood(delta, closed=True)
        record = _orbit_record(
            system.image_of_set, U, horizon, hausdorff_to_A,
            f"delta{delta:.6g}/neighborhood", None, tuple((a, 1, len(U)) for a in sorted(U)),
        )
        h = record.distances
        records.append(record)
        positive = [(n, v) for n, v in enumerate(h) if n >= 1 and v > 0.0]
        if len(positive) < 2:
            fits[delta] = {"lambda": None, "C": None, "r2": None,
                           "collapsed": True}
            continue
        slope, intercept, r2 = _log_linear_fit(positive)
        lam = -slope
        h0 = h[0] if h[0] > 0 else max(h)
        C = max(v * math.exp(lam * n) / h0 for n, v in positive)
        fits[delta] = {"lambda": lam, "C": C, "r2": r2, "collapsed": False}
        if not (lam > 0.0 and r2 >= R2_FLOOR):
            stable = False
            if witness is None:
                witness = record
    return StabilityReport(
        notion="exponential",
        params={"set": sorted(A), "eps": eps, "delta_grid": sorted(delta_grid),
                "horizon": horizon, "r2_floor": R2_FLOOR,
                "fits": {f"{d:.12g}": v for d, v in fits.items()}},
        verdict=STABLE if stable else UNSTABLE,
        witness=witness,
        records=tuple(records),
        notes=("hausdorff distances along the orbit equal those of the lifts "
               "(lift identity, checked against the solver in the test suite)",),
    )


def _parsed(name: str, number, text: str):
    """``number(text)``, the number in the scenario name ``name``; a failure
    is reported as a malformed name."""
    try:
        return number(text)
    except ZeroDivisionError:
        raise MalformedInput(f"zero denominator in {name!r}") from None
    except ValueError:
        raise MalformedInput(f"malformed scenario name {name!r}") from None


@dataclass(frozen=True)
class SinkSourceScenario:
    """A line of basin points draining into a sink, with a fixed source at the end."""

    system: MapSystem
    sink: int
    source: int
    d_xy: float
    delta_sink: DiscreteMeasure
    delta_source: DiscreteMeasure
    default_delta_grid: tuple
    default_horizon: int

    def mu_eps(self, eps: Fraction) -> DiscreteMeasure:
        eps = Fraction(eps)
        return make_measure(
            self.system.space, [(self.sink, 1 - eps), (self.source, eps)]
        )

    def measure(self, name: str) -> DiscreteMeasure | None:
        """``sink``, ``source`` or ``mu_eps:<fraction>``."""
        if name.startswith("mu_eps:"):
            eps = _parsed(name, Fraction, name[len("mu_eps:"):])
            try:
                return self.mu_eps(eps)
            except ValueError as exc:  # a weight outside [0, 1]
                raise MalformedInput(str(exc)) from exc
        return {"sink": self.delta_sink, "source": self.delta_source}.get(name)

    def atom_set(self, token: str) -> set | None:
        """``sink`` or ``source``."""
        return {"sink": {self.sink}, "source": {self.source}}.get(token)

    def extra_probes(self, measure_name: str | None) -> tuple:
        """The mixtures mu_eps at 1/8 and 1/4, whatever the probed measure."""
        return tuple(
            (f"mu_eps_{eps}", self.mu_eps(eps)) for eps in (Fraction(1, 8), Fraction(1, 4))
        )


def scenario_sink_source(n_basin: int, d_xy: float = 1.0) -> SinkSourceScenario:
    if n_basin < 1:
        raise MalformedInput("need at least one basin point")
    ids = ["sink"] + [f"b{k}" for k in range(1, n_basin + 1)] + ["source"]
    step = d_xy / (n_basin + 1)
    coords = [[k * step] for k in range(n_basin + 2)]
    space = build_space(ids, "euclidean", coords=coords)
    source = n_basin + 1
    mapping = [0] + list(range(0, n_basin)) + [source]
    system = MapSystem.build(space, mapping)
    return SinkSourceScenario(
        system=system,
        sink=0,
        source=source,
        d_xy=d_xy,
        delta_sink=point_mass(space, 0),
        delta_source=point_mass(space, source),
        default_delta_grid=(d_xy / 8, d_xy / 4),
        default_horizon=2 * space.n_points,
    )


@dataclass(frozen=True)
class TorusShearScenario:
    """N x N grid on the flat torus under the shear (x, y) -> (x + y, y)."""

    system: MapSystem
    n: int

    def atom(self, i: int, j: int) -> int:
        return (j % self.n) * self.n + (i % self.n)

    def row_atoms(self, j: int) -> list:
        return [self.atom(i, j) for i in range(self.n)]

    def uniform_row(self, j: int) -> DiscreteMeasure:
        return make_measure(
            self.system.space,
            [(a, Fraction(1, self.n)) for a in self.row_atoms(j)],
        )

    def lopsided_row(self, j: int) -> DiscreteMeasure:
        # Three quarters of the mass at one column, the rest antipodal.  A
        # uniformly loaded semicircle is too forgiving: the optimal plan splits
        # its surplus both ways around the circle and never moves mass farther
        # than 6/n.  Concentrating the imbalance forces a half-circumference
        # move at the half turn.
        half = self.n // 2
        return make_measure(
            self.system.space,
            [(self.atom(0, j), Fraction(3, 4)), (self.atom(half, j), Fraction(1, 4))],
        )

    @property
    def default_delta_grid(self):
        return (1.0 / self.n, 2.0 / self.n)

    @property
    def default_horizon(self) -> int:
        return self.n

    def _named_row(self, name: str):
        """(row_measure, j) for a name ``<row_measure><j>`` with row_measure
        ``uniform_row`` or ``lopsided_row``; (None, None) for any other name."""
        for row_measure in (self.uniform_row, self.lopsided_row):
            family = row_measure.__name__
            if name.startswith(family):
                return row_measure, _parsed(name, int, name[len(family):])
        return None, None

    def measure(self, name: str) -> DiscreteMeasure | None:
        row_measure, j = self._named_row(name)
        return None if row_measure is None else row_measure(j)

    def atom_set(self, token: str) -> set | None:
        """``row<j>``."""
        if not token.startswith("row"):
            return None
        return set(self.row_atoms(_parsed(token, int, token[len("row"):])))

    def extra_probes(self, measure_name: str | None) -> tuple:
        """The next row of the family of a named row measure."""
        row_measure, j = self._named_row(measure_name or "")
        if row_measure is None:
            return ()
        return ((f"{row_measure.__name__}{j + 1}", row_measure(j + 1)),)


def scenario_torus_shear(n: int) -> TorusShearScenario:
    # Even n keeps the half-turn step n/2 integral, which makes the
    # instability witness land exactly on the antipodal configuration.
    if n < 4 or n % 2:
        raise MalformedInput("need an even grid size n >= 4")
    return _torus_scenario_cached(n)


@lru_cache(maxsize=8)
def _torus_scenario_cached(n: int) -> TorusShearScenario:
    ids = [f"x{i}y{j}" for j in range(n) for i in range(n)]
    coords = [[i / n, j / n] for j in range(n) for i in range(n)]
    space = build_space(ids, "flat-torus", coords=coords, validate=False)
    mapping = [
        (j * n) + ((i + j) % n) for j in range(n) for i in range(n)
    ]
    system = MapSystem.build(space, mapping)
    return TorusShearScenario(system=system, n=n)
