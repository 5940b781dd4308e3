import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bottleneck_ot.fileio import (
    MalformedInput,
    load_instance_file,
    load_measure_file,
    load_sequence_file,
    load_system_file,
    measure_to_obj,
    parse_measure,
    parse_space,
    space_to_obj,
)
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import METRIC_RULES, build_space, same_space

from test_transport_properties import PROPERTY_SETTINGS, measures, spaces


def test_space_round_trip_euclidean():
    space = build_space(["a", "b"], "euclidean", coords=[[0.0, 0.0], [1.0, 1.0]])
    again = parse_space(space_to_obj(space))
    assert same_space(space, again)


def test_space_round_trip_torus_and_matrix():
    torus = build_space(["a", "b"], "flat-torus", coords=[[0.1], [0.9]])
    assert same_space(torus, parse_space(space_to_obj(torus)))
    matrix = build_space(["a", "b"], "explicit-matrix", matrix=[[0, 2], [2, 0]])
    assert same_space(matrix, parse_space(space_to_obj(matrix)))


def test_measure_round_trip():
    space = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])
    mu = make_measure(space, [(0, Fraction(2, 7)), (1, Fraction(5, 7))])
    again = parse_measure(measure_to_obj(mu))
    assert again == mu


@pytest.mark.parametrize("rule", METRIC_RULES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_measure_objects_round_trip(rule, data):
    # In memory and through JSON text: labels, rule, coordinates or matrix,
    # and exact weights all survive.
    space = data.draw(spaces(rule))
    mu = data.draw(measures(space, probability=data.draw(st.booleans())))
    obj = measure_to_obj(mu)
    for again in (parse_measure(obj), parse_measure(json.loads(json.dumps(obj)))):
        assert again == mu
        assert again.space == mu.space


def test_measure_file_loading(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "space": {"points": ["x", "y"], "metric": "euclidean",
                  "coords": [[0.0], [1.0]]},
        "weights": [{"atom": "x", "num": 1, "den": 3},
                    {"atom": "y", "num": 2, "den": 3}],
    }))
    mu = load_measure_file(path)
    assert mu.total_mass == 1
    assert mu.mass_at(0) == Fraction(1, 3)


def test_unknown_metric_token_rejected():
    with pytest.raises(MalformedInput):
        parse_space({"points": ["x"], "metric": "hyperbolic", "coords": [[0.0]]})


def test_zero_denominator_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "space": {"points": ["x"], "metric": "euclidean", "coords": [[0.0]]},
        "weights": [{"atom": "x", "num": 1, "den": 0}],
    }))
    with pytest.raises(MalformedInput):
        load_measure_file(path)


def test_sequence_loading(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({
        "space": {"points": ["x", "y"], "metric": "euclidean",
                  "coords": [[0.0], [1.0]]},
        "terms": [
            [{"atom": "x", "num": 1, "den": 1}],
            [{"atom": "y", "num": 1, "den": 1}],
        ],
        "limit": [{"atom": "y", "num": 1, "den": 1}],
    }))
    seq = load_sequence_file(path)
    assert len(seq) == 2
    assert seq.limit.support() == {1}


def test_instance_loading(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "xi": {
            "space": {"points": ["a", "b"], "metric": "euclidean",
                      "coords": [[0.0], [1.0]]},
            "weights": [{"atom": "a", "num": 1, "den": 1},
                        {"atom": "b", "num": 1, "den": 1}],
        },
        "sets": [["a"], ["a", "b"]],
        "targets": [{"num": 1, "den": 1}, {"num": 1, "den": 1}],
    }))
    inst = load_instance_file(path)
    assert inst.m == 2
    assert inst.sets[0] == frozenset({0})
    assert inst.targets == (Fraction(1), Fraction(1))


def test_system_loading_requires_total_map(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "space": {"points": ["x", "y"], "metric": "euclidean",
                  "coords": [[0.0], [1.0]]},
        "map": {"x": "y"},
    }))
    with pytest.raises(MalformedInput):
        load_system_file(path)
    path.write_text(json.dumps({
        "space": {"points": ["x", "y"], "metric": "euclidean",
                  "coords": [[0.0], [1.0]]},
        "map": {"x": "y", "y": "y"},
    }))
    system = load_system_file(path)
    assert system.apply_point(0) == 1
