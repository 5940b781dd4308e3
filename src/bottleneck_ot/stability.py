"""Stability probes for pushforward dynamics on measures.

A finite map system induces a dynamical system on probability measures via the
pushforward.  Sets of points lift to sets of measures (all measures supported
inside the set); the bottleneck distance from a measure to a lift has the
closed form max over support atoms of the point-to-set distance, which ties
point-level and measure-level stability together.

Stability verdicts are resolution-qualified: probes are sampled at the tested
perturbation sizes, witnesses are exact and replayable, and a "stable" verdict
never claims more than the grids it was given.

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

from .errors import EmptySet, MalformedInput, NotInvariant, NotInvariantMeasure, SolverInvariantError
from .measures import DiscreteMeasure, make_measure, point_mass, pushforward
from .spaces import FiniteMetricSpace, build_space, hausdorff
from .transport import w_infinity

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
    sup = max(distances)
    return ProbeRecord(
        label=label,
        seed=seed,
        weights=weights,
        distances=tuple(distances),
        sup_distance=sup,
        argmax_step=distances.index(sup),
        allowance=allowance,
    )


def _child_seed(seed: int, d_idx: int, k: int) -> int:
    """The seed of sample k in the cell of the d_idx-th delta."""
    return seed * 1_000_003 + d_idx * 1_009 + k


def _lift_records(system: MapSystem, lift: LiftedSet, candidates, samples: int,
                  seed: int | None, horizon: int, d_idx: int = 0, prefix: str = ""):
    """Records of lift probes: a point mass at each candidate, then ``samples``
    measures of one to three candidate atoms, each drawn from its own seed.

    Each probe walks its support with ``image_of_set``: supp(f#mu) is
    f(supp mu), because pushed weights stay positive, and the lift distance
    reads only the support.
    """
    if samples and not candidates:
        raise EmptySet("no point within the probe radius to sample from")
    pool = sorted(candidates)
    probes = [(f"{prefix}point{x}", None, ((x, 1, 1),)) for x in pool]
    for k in range(samples):
        child_seed = _child_seed(seed, d_idx, k)
        rng = random.Random(child_seed)
        size = rng.randint(1, min(3, len(pool)))
        atoms = rng.sample(pool, size)
        mu = make_measure(system.space, list(zip(atoms, _random_weights(rng, size))))
        probes.append((f"{prefix}sample{k}", child_seed, _freeze_weights(mu)))
    for label, child_seed, weights in probes:
        yield _orbit_record(system.image_of_set, frozenset(a for a, _, _ in weights), horizon,
                            lift.support_distance, label, child_seed, weights)


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
        for record in _lift_records(system, lift, space.neighborhood(A, delta, closed=True),
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


def _support_translation_probe(rng: random.Random, space, mu, delta) -> DiscreteMeasure:
    pairs = [(_random_neighbor(rng, space, a, delta), w) for a, w in sorted(mu.weights.items())]
    return make_measure(space, pairs)


def _weight_leak_probe(rng: random.Random, space, mu, delta) -> DiscreteMeasure:
    atoms = sorted(mu.weights)
    a = rng.choice(atoms)
    z = _random_neighbor(rng, space, a, delta)
    share = Fraction(rng.randint(1, 3), 4)
    moved = mu.weights[a] * share
    adjusted = dict(mu.weights)
    adjusted[a] = adjusted[a] - moved
    adjusted[z] = adjusted.get(z, Fraction(0)) + moved
    return make_measure(space, adjusted.items())


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
    """
    if not system.is_fixed_measure(mu):
        raise NotInvariantMeasure("the probed measure must be a pushforward fixed point")
    space = system.space
    gap = space.min_positive_gap()
    deltas = sorted(delta_grid)

    def to_mu(m):
        return w_infinity(m, mu).value

    def probes():
        """(probe, label, seed, allowance, distance); a sample is drawn just
        before its orbit, and its delta-ball check is its orbit's step 0."""
        for d_idx, delta in enumerate(deltas):
            for k in range(probes_per_cell):
                child_seed = _child_seed(seed, d_idx, k)
                maker = _support_translation_probe if k % 2 == 0 else _weight_leak_probe
                probe = maker(random.Random(child_seed), space, mu, delta)
                checked = to_mu(probe)
                if not checked <= delta + 1e-12:
                    raise SolverInvariantError("sampled probe escaped its delta ball")
                label = f"delta{delta:.6g}/{maker.__name__.strip('_')}{k}"
                yield (probe, label, child_seed, 2.0 * (delta + gap),
                       lambda m, probe=probe, checked=checked:
                       checked if m is probe else to_mu(m))
        extra_allowance = 2.0 * ((deltas[-1] if deltas else gap) + gap)
        for label, probe in extra_probes:
            yield probe, f"extra/{label}", None, extra_allowance, to_mu

    records = [
        _orbit_record(system.push, probe, horizon, distance, label, child_seed,
                      _freeze_weights(probe), allowance)
        for probe, label, child_seed, allowance, distance in probes()
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
    records = tuple(_lift_records(system, LiftedSet(system.space, A),
                                  system.space.neighborhood(A, eps, closed=True),
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


def probe_attractor(system: MapSystem, A, eps: float, n_max: int) -> StabilityReport:
    """Exact attractor check: the neighborhood must re-enter itself and its
    forward intersection must come back to exactly A."""
    A = _invariant_target(system, A)
    space = system.space
    U = space.neighborhood(A, eps)
    if not U:
        raise EmptySet(f"no point within eps={eps!r} of the set")
    # The forward images of U are eventually periodic: walk them once, to the
    # first repeat.  images[i] is f^(i+1)(U), and they cycle from index start.
    seen: dict[frozenset, int] = {}
    images = []
    current = U
    while True:
        current = system.image_of_set(current)
        if current in seen:
            break
        seen[current] = len(images)
        images.append(current)
    start = seen[current]
    # Every image comes up in the walk, so the first re-entry does too.
    reentry = next(
        (n for n in range(1, min(n_max, len(images)) + 1) if images[n - 1] <= U), None
    )
    intersection = frozenset(range(space.n_points))
    for img in images:
        intersection &= img
    notes = [
        "measure-level verdict transfers through the lift identities "
        "(pushforward of a lift is the lift of the image)",
    ]
    if reentry is None:
        i = n_max - 1
        if i >= len(images):  # past the walk: step back by whole periods
            i = start + (i - start) % (len(images) - start)
        point = min((images[i] if n_max else U) - U, default=min(U))
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
        _lift_records(system, LiftedSet(space, A), [point], 0, None, n_max, prefix=prefix)
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


def probe_exponential(system: MapSystem, A, eps: float, delta_grid,
                      horizon: int) -> StabilityReport:
    """Fit a decay rate to the Hausdorff distance of shrinking closed
    neighborhoods; stable when every tested neighborhood decays geometrically."""
    A = _invariant_target(system, A)
    space = system.space
    fits = {}
    witness = None
    records = []
    stable = True
    for delta in sorted(delta_grid):
        if delta >= eps:
            continue
        U = space.neighborhood(A, delta, closed=True)
        record = _orbit_record(
            system.image_of_set, U, horizon, lambda S: hausdorff(space, A, S),
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


def _parsed(name: str, parse):
    """``parse()``, with the error of a malformed ``name`` reported as such."""
    try:
        return parse()
    except ZeroDivisionError:
        raise MalformedInput(f"zero denominator in {name!r}") from None
    except ValueError as exc:  # not a number, or a mu_eps weight outside [0, 1]
        raise MalformedInput(str(exc)) from exc


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
            return _parsed(name, lambda: self.mu_eps(Fraction(name[len("mu_eps:"):])))
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
                return row_measure, _parsed(name, lambda: int(name[len(family):]))
        return None, None

    def measure(self, name: str) -> DiscreteMeasure | None:
        row_measure, j = self._named_row(name)
        return None if row_measure is None else row_measure(j)

    def atom_set(self, token: str) -> set | None:
        """``row<j>``."""
        if not token.startswith("row"):
            return None
        return set(self.row_atoms(_parsed(token, lambda: int(token[len("row"):]))))

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
