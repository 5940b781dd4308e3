import json

import pytest

from bottleneck_ot.cli import main
from bottleneck_ot.errors import SolverInvariantError

TWO_POINT_SPACE = {
    "points": ["x", "y"],
    "metric": "euclidean",
    "coords": [[0.0], [1.0]],
}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def delta_x(tmp_path):
    return write(tmp_path / "dx.json", {
        "space": TWO_POINT_SPACE,
        "weights": [{"atom": "x", "num": 1, "den": 1}],
    })


@pytest.fixture
def delta_y(tmp_path):
    return write(tmp_path / "dy.json", {
        "space": TWO_POINT_SPACE,
        "weights": [{"atom": "y", "num": 1, "den": 1}],
    })


@pytest.fixture
def vanishing_atom_n4(tmp_path):
    return write(tmp_path / "vanishing4.json", {
        "space": TWO_POINT_SPACE,
        "weights": [
            {"atom": "x", "num": 1, "den": 4},
            {"atom": "y", "num": 3, "den": 4},
        ],
    })


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_dist_point_masses(capsys, delta_x, delta_y):
    code, out = run(capsys, ["dist", delta_x, delta_y])
    assert code == 0
    assert out.splitlines()[0] == "w_infinity 1"


def test_dist_vanishing_atom_with_w1(capsys, vanishing_atom_n4, delta_y):
    code, out = run(capsys, ["dist", vanishing_atom_n4, delta_y, "--p", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w_infinity 1"
    assert lines[1] == "w_1 0.25"


def test_dist_same_file_all_metrics_zero(capsys, vanishing_atom_n4):
    code, out = run(capsys, ["dist", vanishing_atom_n4, vanishing_atom_n4, "--p", "1", "--p", "2"])
    assert code == 0
    assert out.splitlines() == ["w_infinity 0", "w_1 0", "w_2 0"]


def test_dist_w_2_past_the_float_range_of_squares(capsys, tmp_path):
    space = {"points": ["x", "y"], "metric": "matrix", "matrix": [[0, 1e200], [1e200, 0]]}
    ends = [write(tmp_path / f"{atom}.json", {
        "space": space, "weights": [{"atom": atom, "num": 1, "den": 1}]}) for atom in "xy"]
    code, out = run(capsys, ["dist", *ends, "--p", "1", "--p", "2"])
    assert code == 0
    assert out.splitlines() == ["w_infinity 1e+200", "w_1 1e+200", "w_2 1e+200"]


def test_dist_plan_flag_and_json(capsys, vanishing_atom_n4, delta_y):
    code, out = run(capsys, ["dist", vanishing_atom_n4, delta_y, "--plan", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["w_infinity"] == "1"
    assert len(payload["plan"]) == 2


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["dist", str(bad), str(bad)]) == 2


def test_missing_weights_exits_2(capsys, tmp_path):
    bad = write(tmp_path / "noweights.json", {"space": TWO_POINT_SPACE})
    assert main(["dist", bad, bad]) == 2


@pytest.mark.parametrize("metric, coords", [
    ("euclidean", [[1e200], [-1e200]]),  # the squared difference overflows
    ("euclidean", [[1.7e308], [-1.7e308]]),  # the difference overflows to inf
    ("torus", [[1.7e308], [-1.7e308]]),
    ("euclidean", [[0.0, 5.0], [1.0]]),  # ragged: zip would truncate to d = 1
    ("euclidean", [[0.0], [float("nan")]]),
    ("torus", [[0.0], [float("inf")]]),
    ("euclidean", [[1.2e154, 1.2e154], [0.0, 0.0]]),  # two finite squares overflow their sum
])
def test_dist_hostile_coordinates_exit_2(capsys, tmp_path, metric, coords):
    path = write(tmp_path / "hostile.json", {
        "space": {"points": ["x", "y"], "metric": metric, "coords": coords},
        "weights": [{"atom": "x", "num": 1, "den": 1}],
    })
    code, out = run(capsys, ["dist", path, path])
    assert code == 2
    assert out == ""


def test_space_mismatch_exits_3(capsys, delta_x, tmp_path):
    other = write(tmp_path / "other.json", {
        "space": {"points": ["x", "y"], "metric": "euclidean",
                  "coords": [[0.0], [2.0]]},
        "weights": [{"atom": "x", "num": 1, "den": 1}],
    })
    assert main(["dist", delta_x, other]) == 3


def test_plan_csv(capsys, vanishing_atom_n4, delta_y):
    code, out = run(capsys, ["plan", vanishing_atom_n4, delta_y, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source,target,mass,distance"
    assert "x,y,1/4,1" in lines
    assert "y,y,3/4,0" in lines


def test_decompose_valid_and_infeasible(capsys, tmp_path):
    space = {"points": ["a", "b", "c"], "metric": "euclidean",
             "coords": [[0.0], [1.0], [2.0]]}
    good = write(tmp_path / "good.json", {
        "xi": {"space": space, "weights": [
            {"atom": "a", "num": 1, "den": 2},
            {"atom": "b", "num": 1, "den": 2},
        ]},
        "sets": [["a"], ["b", "c"]],
        "targets": [{"num": 1, "den": 2}, {"num": 1, "den": 2}],
    })
    code, out = run(capsys, ["decompose", good])
    assert code == 0
    assert "nu_1 {a: 1/2}" in out
    assert "verification Valid" in out

    bad = write(tmp_path / "bad.json", {
        "xi": {"space": space, "weights": [
            {"atom": "a", "num": 1, "den": 2},
            {"atom": "b", "num": 1, "den": 2},
        ]},
        "sets": [["a"], ["b", "c"]],
        "targets": [{"num": 3, "den": 4}, {"num": 1, "den": 4}],
    })
    code, out = run(capsys, ["decompose", bad])
    assert code == 4
    assert "infeasible" in out and "subset-bound" in out


def test_decompose_checks_feasibility_once(capsys, tmp_path, monkeypatch):
    from bottleneck_ot import cli, decomposition

    calls, check = [], decomposition.check_feasibility

    def counted(instance):
        calls.append(instance)
        return check(instance)

    monkeypatch.setattr(cli, "check_feasibility", counted)
    monkeypatch.setattr(decomposition, "check_feasibility",
                        lambda instance: pytest.fail("feasibility checked again"))
    space = {"points": ["a", "b"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
    inst = write(tmp_path / "two.json", {
        "xi": {"space": space, "weights": [{"atom": "a", "num": 1, "den": 2},
                                           {"atom": "b", "num": 1, "den": 2}]},
        "sets": [["a", "b"], ["b"]],
        "targets": [{"num": 1, "den": 2}, {"num": 1, "den": 2}],
    })
    code, out = run(capsys, ["decompose", inst])
    assert code == 0 and "verification Valid" in out
    assert len(calls) == 1


def test_decompose_base_case_trace(capsys, tmp_path):
    space = {"points": ["a"], "metric": "euclidean", "coords": [[0.0]]}
    inst = write(tmp_path / "one.json", {
        "xi": {"space": space, "weights": [{"atom": "a", "num": 2, "den": 1}]},
        "sets": [["a"]],
        "targets": [{"num": 2, "den": 1}],
    })
    code, out = run(capsys, ["decompose", inst])
    assert code == 0
    assert "trace Base" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_decompose_failing_its_own_verification_is_a_solver_error(capsys, tmp_path, monkeypatch, fmt):
    # A feasible instance whose construction comes back with one atom's mass
    # changed: a bug in the program, not an infeasible instance (exit 4).
    from dataclasses import replace

    from bottleneck_ot import cli
    from bottleneck_ot.measures import make_measure

    construct = cli.decompose

    def altered(instance, **kwargs):
        result = construct(instance, **kwargs)
        first = result.components[0]
        atom = min(first.weights)
        changed = make_measure(first.space, dict(first.weights) | {atom: first.weights[atom] / 2})
        return replace(result, components=(changed,) + result.components[1:])

    monkeypatch.setattr(cli, "decompose", altered)
    space = {"points": ["a", "b"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
    inst = write(tmp_path / "two.json", {
        "xi": {"space": space, "weights": [{"atom": "a", "num": 1, "den": 2},
                                           {"atom": "b", "num": 1, "den": 2}]},
        "sets": [["a", "b"], ["b"]],
        "targets": [{"num": 1, "den": 2}, {"num": 1, "den": 2}],
    })
    with pytest.raises(SolverInvariantError, match=r"fails verification: Violation\(component-mass, i=0\)"):
        main(["decompose", inst, "--format", fmt])
    assert capsys.readouterr().out == ""


def sequence_file(tmp_path, name, terms, limit):
    return write(tmp_path / name, {
        "space": TWO_POINT_SPACE,
        "terms": terms,
        "limit": limit,
    })


def test_converge_constant_exit_0(capsys, tmp_path):
    half = [{"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]
    seq = sequence_file(tmp_path, "const.json", [half] * 4, half)
    code, out = run(capsys, ["converge", seq])
    assert code == 0
    assert "overall ConsistentWithDConvergence" in out


def test_converge_vanishing_atom_exit_5_with_witness(capsys, tmp_path):
    terms = [
        [{"atom": "x", "num": 1, "den": n}, {"atom": "y", "num": n - 1, "den": n}]
        for n in range(2, 10)
    ]
    limit = [{"atom": "y", "num": 1, "den": 1}]
    seq = sequence_file(tmp_path, "vanishing.json", terms, limit)
    code, out = run(capsys, ["converge", seq])
    assert code == 5
    assert "witness" in out and "'y'" in out


def test_converge_stabilizing_reports_n0(capsys, tmp_path):
    limit = [{"atom": "x", "num": 1, "den": 4}, {"atom": "y", "num": 3, "den": 4}]
    other = [{"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]
    seq = sequence_file(tmp_path, "stab.json", [other] * 5 + [limit] * 5, limit)
    code, out = run(capsys, ["converge", seq])
    assert code == 0
    assert "separating-mass: pass n0=5" in out


def test_converge_inconclusive_exit_6(capsys, tmp_path):
    space = {"points": [f"p{i}" for i in range(6)], "metric": "euclidean",
             "coords": [[float(i)] for i in range(6)]}
    terms = [[{"atom": f"p{5 - n}", "num": 1, "den": 1}] for n in range(5)]
    seq = write(tmp_path / "drift.json", {
        "space": space, "terms": terms,
        "limit": [{"atom": "p0", "num": 1, "den": 1}],
    })
    code, out = run(capsys, ["converge", seq])
    assert code == 6


def test_compare_vanishing_atom_table(capsys, tmp_path):
    terms = [
        [{"atom": "x", "num": 1, "den": n}, {"atom": "y", "num": n - 1, "den": n}]
        for n in (2, 4, 8)
    ]
    limit = [{"atom": "y", "num": 1, "den": 1}]
    seq = sequence_file(tmp_path, "cmp.json", terms, limit)
    code, out = run(capsys, ["compare", seq, "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    w1 = [float(r[1]) for r in rows]
    winf = [float(r[3]) for r in rows]
    assert w1 == [0.5, 0.25, 0.125]
    assert winf == [1.0, 1.0, 1.0]


def test_compare_constant_all_zero(capsys, tmp_path):
    half = [{"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]
    seq = sequence_file(tmp_path, "const2.json", [half] * 3, half)
    code, out = run(capsys, ["compare", seq, "--format", "csv"])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[1:] == ["0", "0", "0", "0"]


def test_stability_sink_source_measure_lyapunov_exit_7(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--notion", "measure-lyapunov",
        "--measure", "sink", "--seed", "0",
    ])
    assert code == 7
    assert "verdict UnstableWitness" in out
    assert "mu_eps" in out


def test_stability_torus_lyapunov_row0_exit_0(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "torus", "--grid-n", "8", "--notion",
        "lyapunov", "--set", "row0", "--horizon", "8", "--seed", "0",
    ])
    assert code == 0
    assert "verdict StableAtResolution" in out


def test_stability_lyapunov_with_measure_routes_to_measure_probe(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--notion", "lyapunov",
        "--measure", "sink", "--seed", "0",
    ])
    assert code == 7
    assert "notion measure-lyapunov" in out


def test_stability_torus32_measure_lyapunov_uniform_exit_0(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "torus", "--grid-n", "32", "--notion",
        "measure-lyapunov", "--measure", "uniform_row0", "--seed", "0",
    ])
    assert code == 0
    assert "verdict StableAtResolution" in out


def test_stability_identity_system_exit_0(capsys, tmp_path):
    system = write(tmp_path / "identity.json", {
        "space": TWO_POINT_SPACE,
        "map": {"x": "x", "y": "y"},
    })
    measure = write(tmp_path / "mu.json", {
        "space": TWO_POINT_SPACE,
        "weights": [{"atom": "x", "num": 1, "den": 2},
                    {"atom": "y", "num": 1, "den": 2}],
    })
    code, out = run(capsys, [
        "stability", "--system", system, "--notion", "measure-lyapunov",
        "--measure", measure, "--horizon", "4", "--seed", "0",
    ])
    assert code == 0


def test_stability_attractor_source_unstable(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--n-basin", "4", "--notion",
        "attractor", "--set", "source", "--eps", "0.3",
    ])
    assert code == 7


def test_stability_trace_csv_written(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _ = run(capsys, [
        "stability", "--scenario", "sink_source", "--n-basin", "5", "--notion",
        "measure-lyapunov", "--measure", "sink", "--horizon", "3",
        "--trace-csv", str(trace),
    ])
    assert code == 7
    assert trace.read_text().startswith("n,probe,distance")


ONE_POINT_SYSTEM = {"space": {"points": ["a"], "metric": "euclidean", "coords": [[0.0]]},
                    "map": {"a": "a"}}


@pytest.mark.parametrize("flags, message", [
    (["--notion", "attractor"], "--eps must be finite and > 0, got 0.0"),
    (["--notion", "attractor", "--horizon", "0"], "--eps must be finite and > 0, got 0.0"),
    (["--notion", "lyapunov"], "--delta must be finite and > 0, got 0.0"),
], ids=["attractor", "attractor-zero-horizon", "lyapunov"])
def test_stability_rejects_the_zero_default_radii_of_a_one_point_system(capsys, tmp_path, flags, message):
    # A one-point space has diameter 0, so its default grid is (0, 0): eps = 0
    # would leave the attractor an empty neighbourhood.
    system = write(tmp_path / "one.json", ONE_POINT_SYSTEM)
    assert main(["stability", "--system", system, "--set", "a"] + flags) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_stability_one_point_system_with_a_radius_is_an_attractor(capsys, tmp_path):
    system = write(tmp_path / "one.json", ONE_POINT_SYSTEM)
    code, out = run(capsys, ["stability", "--system", system, "--notion", "attractor",
                             "--set", "a", "--eps", "0.5"])
    assert code == 0
    assert "verdict StableAtResolution" in out


def test_stability_needs_scenario_or_system(capsys):
    assert main(["stability", "--notion", "lyapunov", "--set", "row0"]) == 2


def test_stability_explicit_grids(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--n-basin", "4", "--notion",
        "lyapunov", "--set", "sink", "--eps", "0.25", "--delta", "0.125",
        "--delta", "0.25", "--horizon", "6", "--probes", "1", "--seed", "3",
    ])
    assert code == 0
    assert "verdict StableAtResolution" in out


def test_plan_json_format(capsys, vanishing_atom_n4, delta_y):
    code, out = run(capsys, ["plan", vanishing_atom_n4, delta_y, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["w_infinity"] == "1"
    assert ["x", "y", "1/4", "1"] in payload["plan"]


def test_stability_scenario_measure_names(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--notion", "measure-lyapunov",
        "--measure", "mu_eps:1/8", "--horizon", "6", "--seed", "0",
    ])
    # mu_eps:1/8 parses to the mixed fixed measure; the probe run completes
    # with distances measured relative to it.
    assert code in (0, 7)
    assert "notion measure-lyapunov" in out


def test_stability_asymptotic_cli(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--n-basin", "4", "--notion",
        "asymptotic", "--set", "sink", "--eps", "0.5", "--horizon", "10",
        "--probes", "2",
    ])
    assert code == 0
    assert "verdict StableAtResolution" in out


def test_stability_torus_lopsided_extras_injected(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "torus", "--grid-n", "8", "--notion",
        "measure-lyapunov", "--measure", "lopsided_row0", "--horizon", "8",
        "--seed", "0", "--format", "json",
    ])
    payload = json.loads(out)
    labels = [p["label"] for p in payload["probes"]]
    assert "extra/lopsided_row1" in labels
    assert code in (0, 7)


def test_converge_json_format(capsys, tmp_path):
    half = [{"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]
    seq = sequence_file(tmp_path, "cj.json", [half] * 3, half)
    code, out = run(capsys, ["converge", seq, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "ConsistentWithDConvergence"
    assert payload["delta"] == ["0", "0", "0"]


def test_compare_json_format(capsys, tmp_path):
    half = [{"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]
    seq = sequence_file(tmp_path, "cj2.json", [half] * 2, half)
    code, out = run(capsys, ["compare", seq, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["w_infinity"] == "0"


def test_stability_exponential_cli(capsys):
    code, out = run(capsys, [
        "stability", "--scenario", "sink_source", "--n-basin", "4", "--notion",
        "exponential", "--set", "sink", "--eps", "0.9", "--delta", "0.5",
        "--horizon", "8",
    ])
    assert code == 0
    assert "verdict StableAtResolution" in out


@pytest.mark.parametrize("flags, message", [
    (["--scenario", "sink_source", "--notion", "measure-lyapunov", "--measure", "mu_eps:1/0"],
     "zero denominator in 'mu_eps:1/0'"),
    (["--scenario", "sink_source", "--notion", "lyapunov", "--set", "sink", "--horizon=-1"],
     "--horizon must be >= 0, got -1"),
    (["--scenario", "sink_source", "--notion", "attractor", "--set", "sink", "--n-max", "0"],
     "--n-max must be >= 1, got 0"),
    (["--scenario", "sink_source", "--notion", "attractor", "--set", "sink", "--horizon", "0"],
     "--horizon must be >= 1, got 0"),
    (["--scenario", "sink_source", "--notion", "lyapunov", "--set", "sink", "--probes=-1"],
     "--probes must be >= 0, got -1"),
    (["--scenario", "sink_source", "--notion", "asymptotic", "--set", "sink", "--tol=-1"],
     "--tol must be finite and >= 0, got -1.0"),
    (["--scenario", "sink_source", "--notion", "lyapunov", "--set", "sink", "--eps", "nan"],
     "--eps must be finite and > 0, got nan"),
    (["--scenario", "torus", "--grid-n", "8", "--notion", "exponential", "--set", "row1",
      "--eps", "0.5", "--delta", "0"],
     "--delta must be finite and > 0, got 0.0"),
    (["--scenario", "sink_source", "--d-xy=-1", "--notion", "attractor", "--set", "sink"],
     "--d-xy must be finite and > 0, got -1.0"),
    (["--scenario", "torus", "--grid-n", "8", "--notion", "lyapunov", "--set", "row0,x0y1"],
     "malformed scenario name 'row0,x0y1'"),
    (["--scenario", "torus", "--grid-n", "8", "--notion", "measure-lyapunov",
      "--measure", "uniform_rowx"],
     "malformed scenario name 'uniform_rowx'"),
], ids=["mu_eps-zero-denominator", "negative-horizon", "zero-n-max", "zero-horizon-as-n-max",
        "negative-probes", "negative-tol", "nan-eps", "zero-delta", "negative-d-xy",
        "malformed-set-name", "malformed-measure-name"])
def test_stability_bad_arguments_exit_2_with_their_own_message(capsys, flags, message):
    assert main(["stability"] + flags) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_w_infinity_flow_off_its_marginals_is_not_reported_as_bad_input(
        monkeypatch, vanishing_atom_n4, delta_y):
    # A max flow that moves one unit to another pair breaks the marginals: a
    # solver bug, which must surface with its traceback, not as exit code 2.
    from bottleneck_ot import transport

    solve = transport.max_flow

    def moved(n_nodes, edges, source, sink):
        value, flows, reached = solve(n_nodes, edges, source, sink)
        pairs = [k for k, (u, v, _) in enumerate(edges) if u != source and v != sink]
        src = next(k for k in pairs if flows[k])
        dst = next(k for k in pairs if k != src)
        flows = list(flows)
        flows[src] -= 1
        flows[dst] += 1
        return value, flows, reached

    monkeypatch.setattr(transport, "max_flow", moved)
    with pytest.raises(SolverInvariantError, match="flow marginals do not match"):
        main(["dist", vanishing_atom_n4, delta_y])


def test_w_p_flow_off_its_marginals_is_not_reported_as_bad_input(
        monkeypatch, vanishing_atom_n4, delta_y):
    from bottleneck_ot import transport

    solve = transport.min_cost_max_flow

    def moved(supply, distances, demand, p=1):
        value, flows = solve(supply, distances, demand, p)
        src = min(flows)
        dst = next(k for k in range(len(distances)) if k != src)
        flows = dict(flows)
        flows[src] -= 1
        flows[dst] = flows.get(dst, 0) + 1
        return value, flows

    monkeypatch.setattr(transport, "min_cost_max_flow", moved)
    with pytest.raises(SolverInvariantError, match="flow marginals do not match"):
        main(["dist", vanishing_atom_n4, delta_y, "--p", "1"])


def _weights(*pairs):
    return [{"atom": atom, "num": num, "den": den} for atom, num, den in pairs]


HALF = _weights(("x", 1, 2), ("y", 1, 2))
NEGATIVE = _weights(("x", -1, 2), ("y", 3, 2))
HOSTILE_FILES = {
    "half.json": {"space": TWO_POINT_SPACE, "weights": HALF},
    "negative.json": {"space": TWO_POINT_SPACE, "weights": NEGATIVE},
    "negative_den.json": {"space": TWO_POINT_SPACE, "weights": _weights(("x", 1, -2), ("y", 3, 2))},
    "zero_den.json": {"space": TWO_POINT_SPACE, "weights": _weights(("x", 1, 0), ("y", 1, 1))},
    "unknown_atom.json": {"space": TWO_POINT_SPACE, "weights": _weights(("z", 1, 1))},
    "garbled.json": "{not json",
    "no_terms.json": {"space": TWO_POINT_SPACE, "terms": [], "limit": HALF},
    "one_term.json": {"space": TWO_POINT_SPACE, "terms": [HALF], "limit": HALF},
    "negative_term.json": {"space": TWO_POINT_SPACE, "terms": [NEGATIVE, HALF], "limit": HALF},
    "negative_limit.json": {"space": TWO_POINT_SPACE, "terms": [HALF, HALF], "limit": NEGATIVE},
    "negative_target.json": {"xi": {"space": TWO_POINT_SPACE, "weights": HALF},
                             "sets": [["x"], ["y"]],
                             "targets": [{"num": -1, "den": 2}, {"num": 3, "den": 2}]},
    "unmatched_targets.json": {"xi": {"space": TWO_POINT_SPACE, "weights": HALF},
                               "sets": [["x"]],
                               "targets": [{"num": 1, "den": 2}, {"num": 1, "den": 2}]},
    "no_sets.json": {"xi": {"space": TWO_POINT_SPACE, "weights": HALF}, "sets": [], "targets": []},
    "negative_xi.json": {"xi": {"space": TWO_POINT_SPACE, "weights": NEGATIVE},
                         "sets": [["x"]], "targets": [{"num": 1, "den": 1}]},
    "identity.json": {"space": TWO_POINT_SPACE, "map": {"x": "x", "y": "y"}},
    "partial_map.json": {"space": TWO_POINT_SPACE, "map": {"x": "x"}},
}
SINK_SOURCE = ["stability", "--scenario", "sink_source"]
HOSTILE_ARGV = [
    ["dist", "{dir}/negative.json", "{dir}/half.json"],
    ["dist", "{dir}/negative_den.json", "{dir}/half.json", "--p", "1"],
    ["dist", "{dir}/zero_den.json", "{dir}/half.json"],
    ["dist", "{dir}/unknown_atom.json", "{dir}/half.json"],
    ["dist", "{dir}/missing.json", "{dir}/half.json"],
    ["plan", "{dir}/half.json", "{dir}/negative.json"],
    ["plan", "{dir}/garbled.json", "{dir}/half.json"],
    ["decompose", "{dir}/negative_target.json"],
    ["decompose", "{dir}/unmatched_targets.json"],
    ["decompose", "{dir}/no_sets.json"],
    ["decompose", "{dir}/negative_xi.json"],
    ["converge", "{dir}/no_terms.json"],
    ["converge", "{dir}/one_term.json"],
    ["converge", "{dir}/negative_term.json"],
    ["converge", "{dir}/negative_limit.json"],
    ["compare", "{dir}/no_terms.json"],
    ["compare", "{dir}/negative_term.json", "--format", "csv"],
    SINK_SOURCE + ["--notion", "lyapunov", "--set", "sink", "--delta=-1"],
    SINK_SOURCE + ["--notion", "asymptotic", "--set", "sink", "--eps", "nan"],
    SINK_SOURCE + ["--notion", "asymptotic", "--set", "sink", "--d-xy=-1"],
    SINK_SOURCE + ["--notion", "measure-lyapunov", "--measure", "sink", "--delta=-1"],
    SINK_SOURCE + ["--notion", "measure-lyapunov", "--measure", "mu_eps:3/2"],
    SINK_SOURCE + ["--notion", "measure-lyapunov", "--measure", "mu_eps:abc"],
    SINK_SOURCE + ["--notion", "attractor", "--set", "source", "--n-max=-1"],
    SINK_SOURCE + ["--notion", "exponential", "--set", "sink", "--horizon=-3"],
    SINK_SOURCE + ["--n-basin", "0", "--notion", "lyapunov", "--set", "sink"],
    ["stability", "--scenario", "torus", "--grid-n", "6", "--notion", "lyapunov",
     "--set", "rowx"],
    ["stability", "--scenario", "torus", "--grid-n", "5", "--notion", "lyapunov",
     "--set", "row0"],
    ["stability", "--system", "{dir}/identity.json", "--notion", "measure-lyapunov",
     "--measure", "{dir}/negative.json"],
    ["stability", "--system", "{dir}/partial_map.json", "--notion", "lyapunov", "--set", "x"],
]


@pytest.mark.parametrize("argv", HOSTILE_ARGV, ids=lambda argv: " ".join(argv).replace("{dir}/", ""))
def test_hostile_input_exits_2_with_empty_stdout(capsys, tmp_path, argv):
    for name, obj in HOSTILE_FILES.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code = main([arg.replace("{dir}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
