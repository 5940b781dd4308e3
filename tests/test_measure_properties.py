"""Property tests: `make_measure` and `pushforward` against the versions that
rebuilt every weight and re-entered `make_measure` for each push.

The oracle bodies below are kept verbatim, except that the package's former
``as_fraction(weight)`` wrapper is now spelled ``Fraction(weight)``.  The
results must agree in weights, key order, weight types and total, or both
calls must raise the same exception with the same message.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot.errors import UnknownAtom
from bottleneck_ot.measures import ZERO, DiscreteMeasure, make_measure, pushforward
from bottleneck_ot.spaces import build_space

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def oracle_make_measure(space, atom_weight_pairs) -> DiscreteMeasure:
    if isinstance(atom_weight_pairs, Mapping):
        atom_weight_pairs = atom_weight_pairs.items()
    acc: dict[int, Fraction] = {}
    for atom, weight in atom_weight_pairs:
        space.check_atom(atom)
        w = Fraction(weight)
        if w < 0:
            raise ValueError(f"negative weight {w} at atom {atom}")
        acc[atom] = acc.get(atom, ZERO) + w
    weights = {a: w for a, w in sorted(acc.items()) if w > 0}
    total = sum(weights.values(), start=ZERO)
    return DiscreteMeasure(space, weights, total)


def oracle_pushforward(mu: DiscreteMeasure, point_map) -> DiscreteMeasure:
    if callable(point_map):
        fn = point_map
    elif isinstance(point_map, Mapping):
        fn = point_map.__getitem__
    else:
        fn = list(point_map).__getitem__
    pairs = []
    for atom, w in mu.weights.items():
        try:
            image = fn(atom)
        except (KeyError, IndexError):
            raise UnknownAtom(f"point map undefined at atom {atom}") from None
        pairs.append((mu.space.check_atom(image), w))
    return oracle_make_measure(mu.space, pairs)


class TaggedFraction(Fraction):
    """A Fraction subclass: both versions must store a plain Fraction."""


SPACES = [build_space([f"p{i}" for i in range(n)], "euclidean", coords=[[float(i)] for i in range(n)])
          for n in range(1, 6)]

fractions = st.fractions(min_value=-2, max_value=3, max_denominator=12)
weights = st.one_of(
    fractions,
    st.integers(-2, 4),
    st.just(0),
    st.floats(-2.0, 4.0, allow_nan=False),
    fractions.map(str),
    st.sampled_from(["0.25", "1e-2", "3/4", "-1/3", "x"]),
    fractions.map(TaggedFraction),
)
# Mostly indices of the 5-point space (out of range for smaller ones); some
# negative, some not ints.
atoms = st.one_of(st.integers(0, 4), st.integers(-2, 7), st.sampled_from([1.0, "0", None, True]))


def outcome(call, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        mu = call(*args)
    except Exception as exc:  # the property compares whatever is raised
        return None, (type(exc), str(exc))
    return (list(mu.weights.items()), [type(w) for w in mu.weights.values()],
            mu.total_mass, type(mu.total_mass)), None


@PROPERTY_SETTINGS
@given(space=st.sampled_from(SPACES), pairs=st.lists(st.tuples(atoms, weights), max_size=8),
       as_mapping=st.booleans())
def test_make_measure_matches_the_oracle(space, pairs, as_mapping):
    source = dict(pairs) if as_mapping else pairs
    assert outcome(make_measure, space, source) == outcome(oracle_make_measure, space, source)


@st.composite
def measures(draw):
    """A measure from make_measure, or one built by hand whose weights break
    the class invariant (ints, zeros, negatives) and whose total is wrong."""
    space = draw(st.sampled_from(SPACES))
    n = space.n_points
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    if draw(st.booleans()):
        valid = st.fractions(min_value=0, max_value=2, max_denominator=12)
        return oracle_make_measure(space, [(a, draw(valid)) for a in support])
    hand = st.one_of(fractions, st.integers(-1, 3))
    return DiscreteMeasure(space, {a: draw(hand) for a in support}, Fraction(1))


@st.composite
def point_maps(draw, n):
    """A sequence, mapping or callable over the atoms; some images are out of
    range or not ints, and some maps are not total."""
    images = st.one_of(st.integers(0, n - 1), st.integers(-1, n + 1), st.sampled_from([0.0, "1"]))
    table = draw(st.lists(images, min_size=0, max_size=n + 1))
    kind = draw(st.sampled_from(["list", "tuple", "dict", "callable"]))
    if kind == "list":
        return table
    if kind == "tuple":
        return tuple(table)
    mapping = {a: img for a, img in enumerate(table) if draw(st.booleans())}
    return mapping if kind == "dict" else mapping.__getitem__


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pushforward_matches_the_oracle(data):
    mu = data.draw(measures())
    point_map = data.draw(point_maps(mu.space.n_points))
    assert outcome(pushforward, mu, point_map) == outcome(oracle_pushforward, mu, point_map)


def test_pushes_sum_the_weights_not_the_stored_total():
    space = SPACES[2]
    mu = DiscreteMeasure(space, {0: Fraction(1, 2), 2: Fraction(1, 4)}, Fraction(1))
    pushed = pushforward(mu, [1, 1, 1])
    assert list(pushed.weights.items()) == [(1, Fraction(3, 4))]
    assert pushed.total_mass == Fraction(3, 4)
