"""Finite metric spaces: validated distances, neighborhoods, Hausdorff distance.

A space is a fixed list of labeled points together with an exact symmetric
distance function.  All other modules reference points by their integer index
into ``point_ids``; labels only matter at the file-format boundary.

An ``explicit-matrix`` space keeps its validated tuple of rows.  The
coordinate rules (``euclidean``, ``flat-torus``) keep only the coordinates:
row i is computed on first use, column by column with entries bit-identical
to the pairwise rule, and memoised as an ``array('d')`` (8 bytes per entry).
"""
from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import add, itemgetter, le, lt
from typing import Iterable, Sequence

from .errors import EmptySet, MetricViolation, UnknownAtom

# Relative slack for the triangle-inequality check, per triangle: Euclidean
# matrices satisfy the triangle inequality in exact arithmetic but float
# rounding can overshoot by a few ulps.
_TRIANGLE_SLACK = 1e-9

METRIC_RULES = ("euclidean", "flat-torus", "explicit-matrix")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with an n-by-n distance function, read row by row.

    ``matrix`` holds the rows of an ``explicit-matrix`` space and is None for
    the coordinate rules, whose rows are computed from ``coords`` on demand.
    Instances are immutable apart from those memoised rows; any operation may
    share one across threads (two threads that race on a row compute the
    same row).
    """

    point_ids: tuple
    matrix: tuple | None  # tuple of tuples of float, explicit-matrix rule only
    metric_rule: str = "explicit-matrix"
    coords: tuple | None = None
    _index: dict = field(init=False, repr=False, compare=False)
    _rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {pid: i for i, pid in enumerate(self.point_ids)}
        )
        rows = list(self.matrix) if self.matrix is not None else [None] * self.n_points
        object.__setattr__(self, "_rows", rows)

    @property
    def n_points(self) -> int:
        return len(self.point_ids)

    def index_of(self, point_id) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise UnknownAtom(f"unknown point id {point_id!r}") from None

    def row(self, i: int):
        """Distances d(i, j) for every j, as a sequence indexed by j."""
        row = self._rows[i]
        if row is None:
            row = self._coordinate_row(i)
            self._rows[i] = row
        return row

    @cached_property
    def _columns(self) -> tuple:
        """Per coordinate dimension: (sorted distinct values, each point's
        index into them)."""
        columns = []
        for column in zip(*self.coords):
            values = sorted(set(column))
            position = {v: k for k, v in enumerate(values)}
            columns.append((values, [position[v] for v in column]))
        return tuple(columns)

    def _coordinate_row(self, i: int) -> array:
        """Row i of a coordinate space, column by column.

        Each entry is bit-identical to ``_euclidean``/``_flat_torus`` of the
        two coordinate vectors: the per-dimension square is the same
        expression, computed once per distinct value of the column and
        gathered for every j; the squares are summed by ``math.fsum`` for
        d >= 3.  For d <= 2 the correctly rounded ``a + b`` equals the fsum,
        except that fsum raises ``OverflowError`` where two finite squares
        overflow, which is reproduced here; an infinite square (from an
        infinite difference) gives inf in both.
        """
        wrap = self.metric_rule == "flat-torus"
        gathered = []
        for c, (values, position) in zip(self.coords[i], self._columns):
            if wrap:
                squares = [min(t, 1.0 - t) ** 2 for t in [abs(c - v) % 1.0 for v in values]]
            else:
                squares = [(c - v) ** 2 for v in values]
            gathered.append([squares[k] for k in position])
        if len(gathered) == 1:
            sums = gathered[0]
        elif len(gathered) == 2:
            sums = list(map(add, *gathered))
            if math.inf in sums and any(s == math.inf and math.inf not in (a, b)
                                        for s, a, b in zip(sums, *gathered)):
                raise OverflowError("intermediate overflow in fsum")
        elif gathered:
            sums = list(map(math.fsum, zip(*gathered)))
        else:  # zero-dimensional coordinates: every distance is fsum(()) = 0.0
            sums = [0.0] * self.n_points
        return array("d", map(math.sqrt, sums))

    def d(self, i: int, j: int) -> float:
        return self.row(i)[j]

    def check_atom(self, i: int) -> int:
        if not isinstance(i, int) or not 0 <= i < self.n_points:
            raise UnknownAtom(f"atom index {i!r} outside space of {self.n_points} points")
        return i

    @cached_property
    def _extent(self) -> tuple:
        """(smallest, largest) pairwise distance, (0.0, 0.0) for one point."""
        if self.n_points == 1:
            return 0.0, 0.0
        gap, diameter = math.inf, -math.inf
        for i in range(self.n_points - 1):
            upper = self.row(i)[i + 1:]
            gap, diameter = min(gap, min(upper)), max(diameter, max(upper))
        return gap, diameter

    def diameter(self) -> float:
        """Largest pairwise distance, computed once per space."""
        return self._extent[1]

    def min_positive_gap(self) -> float:
        """Smallest nonzero pairwise distance; the resolution of the space.
        Computed once per space."""
        return self._extent[0]

    def set_distance(self, i: int, atoms: Iterable[int]) -> float:
        """d(x, A) = min over a in A of d(x, a)."""
        atoms = list(atoms)
        if not atoms:
            raise EmptySet("set distance to an empty set")
        row = self.row(i)
        # One C-level gather; itemgetter returns a bare value for one atom.
        return min(itemgetter(*atoms)(row)) if len(atoms) > 1 else row[atoms[0]]

    def distances_to(self, atoms: Iterable[int]) -> list:
        """d(x, A) for every point x, as a list indexed by x: the elementwise
        minimum of the rows of the atoms of A (the distances are symmetric)."""
        rows = [self.row(a) for a in atoms]
        if not rows:
            raise EmptySet("distances to an empty set")
        return list(map(min, *rows)) if len(rows) > 1 else list(rows[0])

    def neighborhood(self, atoms: Iterable[int], eps: float, closed: bool = False) -> frozenset:
        """Points within distance eps of the set (strict by default, per the open
        epsilon-neighborhood convention)."""
        atoms = list(atoms)
        # One atom's memoised row is read as it is; ``le``/``lt`` compare as
        # ``<=``/``<`` do, exactly for int and Fraction radii too.
        to_set = self.row(atoms[0]) if len(atoms) == 1 else self.distances_to(atoms)
        return frozenset(compress(range(self.n_points), map(le if closed else lt, to_set, repeat(eps))))

    def distance_csv(self) -> str:
        """Distance matrix as CSV with a label header row/column."""
        buf = io.StringIO()
        buf.write("," + ",".join(str(p) for p in self.point_ids) + "\n")
        for i, pid in enumerate(self.point_ids):
            row = ",".join(f"{d:.12g}" for d in self.row(i))
            buf.write(f"{pid},{row}\n")
        return buf.getvalue()


# The pairwise rules: the definition that ``_coordinate_row`` reproduces bit
# for bit, and the reference the tests compare rows against.
def _euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def _flat_torus(a: Sequence[float], b: Sequence[float]) -> float:
    # Coordinate-wise wraparound (period 1) before the Euclidean norm.
    acc = []
    for x, y in zip(a, b):
        t = abs(x - y) % 1.0
        acc.append(min(t, 1.0 - t) ** 2)
    return math.sqrt(math.fsum(acc))


def _validate_matrix(dist, n: int) -> None:
    for i in range(n):
        if dist[i][i] != 0.0:
            raise MetricViolation(f"nonzero diagonal at {i}")
        for j in range(n):
            if dist[i][j] != dist[j][i]:
                raise MetricViolation(f"asymmetry at ({i}, {j})")
            if i != j and not dist[i][j] > 0.0:
                raise MetricViolation(f"non-positive off-diagonal at ({i}, {j})")
    # The slack scales with each triangle's own bound d(i,j) + d(j,k), so one
    # huge or infinite entry elsewhere cannot switch the check off; an infinite
    # d(i,k) fails against any finite bound.
    for i, row in enumerate(dist):
        for j, d_ij in enumerate(row):
            for k, (d_ik, d_jk) in enumerate(zip(row, dist[j])):
                bound = d_ij + d_jk
                if d_ik > bound + _TRIANGLE_SLACK * max(bound, 1.0):
                    raise MetricViolation(
                        f"triangle failure: d({i},{k}) > d({i},{j}) + d({j},{k})"
                    )


def _validate_rows(space: FiniteMetricSpace) -> None:
    """Off-diagonal positivity and finiteness of a coordinate space, O(n^2).

    The coordinate rules give a zero diagonal, exact symmetry and the triangle
    inequality by construction; this fills the row memo.
    """
    for i in range(space.n_points):
        try:
            row = space.row(i)
        except OverflowError:
            raise MetricViolation(f"distance overflow in row {i}") from None
        for j, d in enumerate(row):
            if not 0.0 < d < math.inf and i != j:
                what = "non-positive off-diagonal" if d <= 0.0 else "distance overflow"
                raise MetricViolation(f"{what} at ({i}, {j})")


def _coordinate_vectors(coords, n: int) -> tuple:
    """Coordinates as float tuples: one per point, all of one length, finite."""
    vectors = tuple(tuple(float(c) for c in vec) for vec in coords)
    if len(vectors) != n:
        raise MetricViolation("coordinate count does not match the point count")
    if len({len(vec) for vec in vectors}) > 1:
        raise MetricViolation("coordinate vectors differ in length")
    if not all(math.isfinite(c) for vec in vectors for c in vec):
        raise MetricViolation("non-finite coordinate")
    return vectors


def build_space(points, metric_rule: str = "euclidean", *, coords=None, matrix=None,
                validate: bool = True) -> FiniteMetricSpace:
    """Build a validated space from coordinates or an explicit matrix.

    ``points`` is a sequence of distinct hashable labels.  For the coordinate
    rules, ``coords`` gives one finite real vector per point, all of the same
    length; ``flat-torus`` wraps each coordinate modulo 1 before taking the
    Euclidean norm.  Validation checks symmetry, positivity and the triangle
    inequality of an explicit matrix (O(n^3)); a coordinate space is a metric
    by construction, so only its off-diagonal positivity is checked (O(n^2)).
    """
    points = tuple(points)
    if not points:
        raise MetricViolation("a space needs at least one point")
    if len(set(points)) != len(points):
        raise MetricViolation("duplicate point labels")
    if metric_rule not in METRIC_RULES:
        raise MetricViolation(f"unknown metric rule {metric_rule!r}")
    n = len(points)

    if metric_rule == "explicit-matrix":
        if matrix is None:
            raise MetricViolation("explicit-matrix rule requires a matrix")
        # "+ 0.0" turns a -0.0 entry into 0.0, so that d(x, x) and every
        # distance read from it are +0.0 and print as "0".
        dist = tuple(tuple(float(v) + 0.0 for v in row) for row in matrix)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise MetricViolation("matrix shape does not match the point count")
        if validate:
            _validate_matrix(dist, n)
        return FiniteMetricSpace(points, dist, metric_rule)

    if coords is None:
        raise MetricViolation(f"{metric_rule} rule requires coordinates")
    space = FiniteMetricSpace(points, None, metric_rule, _coordinate_vectors(coords, n))
    if validate:
        _validate_rows(space)
    return space


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    """Same labels and the same distance between every pair of points."""
    if a is b:
        return True
    if a.point_ids != b.point_ids:
        return False
    if (a.metric_rule, a.coords, a.matrix) == (b.metric_rule, b.coords, b.matrix):
        return True
    return all(list(a.row(i)) == list(b.row(i)) for i in range(a.n_points))


def directed_distance(space: FiniteMetricSpace, A: Iterable[int], B: Iterable[int]) -> float:
    """d(A, B) = sup over x in A of d(x, B)."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySet("directed distance of an empty set")
    return max(space.set_distance(a, B) for a in A)


def hausdorff(space: FiniteMetricSpace, A: Iterable[int], B: Iterable[int]) -> float:
    """d_H(A, B) = max of the two directed sup-inf distances."""
    A, B = list(A), list(B)
    return max(directed_distance(space, A, B), directed_distance(space, B, A))
