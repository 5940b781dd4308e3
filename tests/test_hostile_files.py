"""Property tests: hostile input files exit 2 with a one-line message.

Each file kind the CLI reads (measure, sequence, decomposition instance,
system) is drawn well formed and then broken in one way: a zero or negative
`den` (including a negative `num` over a negative `den`, which `Fraction`
would fold into a positive weight), a `num` or `den` that is not a JSON
integer (a float, integral ones too, a numeric string or a boolean), a
repeated point label, or a map that misses points or names an unknown one.  Every run must exit 2 with empty
stdout and one stderr line starting with "error: ", and no traceback.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot.cli import main

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def run(files: dict, argv: list) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            (Path(tmp) / name).write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_rejected(files: dict, argv: list) -> str:
    """The run's stderr, once it is checked to be a rejection."""
    code, out, err = run(files, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@st.composite
def spaces(draw):
    n = draw(st.integers(2, 5))
    labels = [f"p{i}" for i in range(n)]
    coords = [[float(i)] for i in range(n)]
    return {"points": labels, "metric": "euclidean", "coords": coords}


def weights(labels):
    return [{"atom": a, "num": 1, "den": len(labels)} for a in labels]


def measure_file(space):
    return {"space": space, "weights": weights(space["points"])}


def sequence_file(space):
    return {"space": space, "terms": [weights(space["points"]) for _ in range(3)],
            "limit": weights(space["points"])}


def instance_file(space):
    labels = space["points"]
    return {"xi": measure_file(space), "sets": [[a] for a in labels],
            "targets": [{"num": 1, "den": len(labels)} for _ in labels]}


def system_file(space):
    return {"space": space, "map": {a: a for a in space["points"]}}


def file_runs(space):
    """(files, argv, where the weights arrays sit) for every file kind."""
    half = measure_file(space)
    return [
        ({"a.json": measure_file(space), "b.json": half},
         ["dist", "{dir}/a.json", "{dir}/b.json", "--p", "1"], ("a.json", "weights")),
        ({"a.json": half, "b.json": measure_file(space)},
         ["plan", "{dir}/a.json", "{dir}/b.json"], ("b.json", "weights")),
        ({"s.json": sequence_file(space)}, ["converge", "{dir}/s.json"], ("s.json", "limit")),
        ({"s.json": sequence_file(space)}, ["compare", "{dir}/s.json"], ("s.json", "terms", 1)),
        ({"i.json": instance_file(space)}, ["decompose", "{dir}/i.json"], ("i.json", "targets")),
        ({"i.json": instance_file(space)}, ["decompose", "{dir}/i.json"],
         ("i.json", "xi", "weights")),
        ({"m.json": system_file(space), "mu.json": measure_file(space)},
         ["stability", "--system", "{dir}/m.json", "--notion", "measure-lyapunov",
          "--measure", "{dir}/mu.json", "--horizon", "2"], ("mu.json", "weights")),
    ]


def locate(files, path):
    node = files[path[0]]
    for key in path[1:]:
        node = node[key]
    return node


@PROPERTY_SETTINGS
@given(space=spaces(), scale=st.integers(-3, 0), num=st.integers(-6, 6), data=st.data())
def test_zero_or_negative_den_exits_2(space, scale, num, data):
    # A negative scale keeps the weight's value, so only the sign of den is wrong.
    for files, argv, path in file_runs(space):
        entries = locate(files, path)
        k = data.draw(st.integers(0, len(entries) - 1))
        den = entries[k]["den"] * scale
        entries[k] = {**entries[k], "num": entries[k]["num"] * scale if den else num, "den": den}
        assert_rejected(files, argv)


NOT_INTEGERS = st.one_of(
    st.floats(),
    st.integers(-9, 9).map(float),
    st.integers(-9, 9).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.booleans(),
)


@PROPERTY_SETTINGS
@given(space=spaces(), field=st.sampled_from(("num", "den")), value=NOT_INTEGERS,
       data=st.data())
def test_non_integer_num_or_den_exits_2(space, field, value, data):
    for files, argv, path in file_runs(space):
        entries = locate(files, path)
        k = data.draw(st.integers(0, len(entries) - 1))
        entries[k] = {**entries[k], field: value}
        assert f"{field} must be an integer" in assert_rejected(files, argv)


@PROPERTY_SETTINGS
@given(space=spaces(), data=st.data())
def test_duplicate_labels_exit_2(space, data):
    labels = space["points"]
    i, j = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=2, max_size=2,
                              unique=True))
    hostile = {**space, "points": [labels[i] if k == j else a for k, a in enumerate(labels)]}
    for files, argv, _ in file_runs(hostile):
        assert_rejected(files, argv)
    assert_rejected({"m.json": system_file(hostile)},
                    ["stability", "--system", "{dir}/m.json", "--notion", "lyapunov",
                     "--set", labels[i]])


@PROPERTY_SETTINGS
@given(space=spaces(), data=st.data())
def test_non_total_maps_exit_2(space, data):
    labels = space["points"]
    mapping = {a: data.draw(st.sampled_from(labels)) for a in labels}
    kept = data.draw(st.lists(st.sampled_from(labels), max_size=len(labels) - 1, unique=True))
    broken = data.draw(st.sampled_from(("missing", "unknown image", "unknown point")))
    if broken == "missing":
        mapping = {a: mapping[a] for a in kept}
    elif broken == "unknown image":
        mapping[data.draw(st.sampled_from(labels))] = "nowhere"
    else:
        mapping["nowhere"] = labels[0]
    system = {"space": space, "map": mapping}
    for argv in (["--notion", "lyapunov", "--set", labels[0]],
                 ["--notion", "measure-lyapunov", "--measure", "{dir}/mu.json"]):
        assert_rejected({"m.json": system, "mu.json": measure_file(space)},
                        ["stability", "--system", "{dir}/m.json", *argv])
