"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget.  Run with `pytest -s tests/test_acceptance.py`
for the per-criterion pass/fail lines.
"""
import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from bottleneck_ot.convergence import d_convergence_verdict
from bottleneck_ot.decomposition import (
    check_feasibility,
    decompose,
    feasibility_by_flow,
    verify_decomposition,
)
from bottleneck_ot.measures import make_measure, point_mass
from bottleneck_ot.spaces import build_space, hausdorff
from bottleneck_ot.stability import (
    UNSTABLE,
    dist_to_lift,
    probe_measure_lyapunov,
    scenario_sink_source,
    scenario_torus_shear,
)
from bottleneck_ot.transport import (
    candidate_thresholds,
    w_infinity,
    w_infinity_bruteforce,
    w_p,
)

from conftest import random_probability_measure, random_space, convergence_suite
from test_decomposition import perturb_infeasible, random_feasible_instance
from test_stability import dist_to_lift_bruteforce

TWO_POINT = build_space(["x", "y"], "euclidean", coords=[[0.0], [1.0]])


def criterion_pairs(count=500, seed=20240501):
    """The seeded random pairs shared by criteria 1 and 5."""
    rng = random.Random(seed)
    for _ in range(count):
        space = random_space(rng, rng.randint(2, 7))
        mu = random_probability_measure(rng, space, max_atoms=5, max_denominator=16)
        nu = random_probability_measure(rng, space, max_atoms=5, max_denominator=16)
        yield space, mu, nu


def test_acceptance_01_solver_equals_bruteforce_oracle():
    start = time.monotonic()
    for _, mu, nu in criterion_pairs():
        value = w_infinity(mu, nu).value
        assert value == w_infinity_bruteforce(mu, nu)
        assert value == 0.0 or value in set(candidate_thresholds(mu, nu))
    assert time.monotonic() - start < 30.0


def test_acceptance_02_metric_axioms():
    start = time.monotonic()
    rng = random.Random(7411)
    for _ in range(200):
        space = random_space(rng, rng.randint(2, 7))
        eta = random_probability_measure(rng, space, max_atoms=6)
        mu = random_probability_measure(rng, space, max_atoms=6)
        nu = random_probability_measure(rng, space, max_atoms=6)
        d_em, d_mn = w_infinity(eta, mu).value, w_infinity(mu, nu).value
        d_en = w_infinity(eta, nu).value
        assert d_em == w_infinity(mu, eta).value  # symmetry, exact
        assert (d_en == 0.0) == (eta == nu)  # identity of indiscernibles
        assert d_en <= d_em + d_mn + 1e-12  # triangle
    assert time.monotonic() - start < 30.0


def test_acceptance_03_vanishing_atom_family_separates_the_metrics():
    start = time.monotonic()
    d_xy = TWO_POINT.d(0, 1)
    nu = point_mass(TWO_POINT, 1)
    for n in (2, 4, 8, 16, 64):
        mu_n = make_measure(
            TWO_POINT, [(0, Fraction(1, n)), (1, Fraction(n - 1, n))]
        )
        assert w_infinity(mu_n, nu).value == d_xy
        assert abs(w_p(mu_n, nu, 1) - d_xy / n) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_acceptance_04_coincident_supports_do_not_shrink_the_distance():
    start = time.monotonic()
    d_xy = TWO_POINT.d(0, 1)
    limit = make_measure(TWO_POINT, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    for n in (2, 3, 5, 8, 13, 21, 64):
        mu_n = make_measure(
            TWO_POINT,
            [(0, Fraction(n + 1, 2 * n)), (1, Fraction(n - 1, 2 * n))],
        )
        assert hausdorff(TWO_POINT, mu_n.support(), limit.support()) == 0.0
        assert w_infinity(mu_n, limit).value == d_xy
    assert time.monotonic() - start < 1.0


def test_acceptance_05_support_hausdorff_lower_bound():
    for space, mu, nu in criterion_pairs():
        bound = hausdorff(space, mu.support(), nu.support())
        assert bound <= w_infinity(mu, nu).value + 1e-12


def test_acceptance_06_decomposition_exactness_and_feasibility_oracle():
    start = time.monotonic()
    rng = random.Random(60321)
    feasible_done = 0
    while feasible_done < 200:
        m = rng.randint(1, 5)
        inst = random_feasible_instance(rng, n_atoms=rng.randint(3, 10), m=m)
        result = decompose(inst)
        assert verify_decomposition(inst, result).valid
        assert feasibility_by_flow(inst)
        assert result.max_depth <= (2 ** inst.m - 1) * inst.m
        feasible_done += 1
    infeasible_done = 0
    while infeasible_done < 50:
        inst = random_feasible_instance(rng, n_atoms=rng.randint(3, 8),
                                        m=rng.randint(2, 5))
        bad = perturb_infeasible(rng, inst)
        if bad is None:
            continue
        verdict = check_feasibility(bad)
        assert not verdict.feasible and verdict.subset is not None
        assert not feasibility_by_flow(bad)
        infeasible_done += 1
    assert time.monotonic() - start < 60.0


def test_acceptance_07_separating_set_and_direct_verdicts_agree():
    start = time.monotonic()
    suite = convergence_suite()
    assert len(suite) == 10
    for name, sequence in suite:
        report = d_convergence_verdict(sequence)
        assert report.characterization_verdict == report.direct_verdict, name
    assert time.monotonic() - start < 10.0


def test_acceptance_08_lift_distance_identities():
    rng = random.Random(2024)
    space = random_space(rng, 8)
    # Point-mass identity on every (x, V) with |V| <= 3, against the
    # solver-backed grid brute force.
    for x in range(8):
        for size in (1, 2, 3):
            for V in itertools.combinations(range(8), size):
                closed_form = dist_to_lift(point_mass(space, x), V)
                assert closed_form == space.set_distance(x, V)
                assert closed_form == dist_to_lift_bruteforce(
                    point_mass(space, x), V, denominator=4
                )
    # General small measures on the eighth-weight grid.
    sampler = random.Random(88)
    for _ in range(40):
        support = sampler.sample(range(8), sampler.randint(1, 3))
        weights = [Fraction(1, 8)] * len(support)
        weights[0] += Fraction(8 - len(support), 8)
        mu = make_measure(space, list(zip(support, weights)))
        A = sampler.sample(range(8), sampler.randint(1, 3))
        assert dist_to_lift(mu, A) == dist_to_lift_bruteforce(mu, A)


def test_acceptance_09_sink_source_scenario():
    start = time.monotonic()
    sc = scenario_sink_source(6, 1.0)
    for eps in (Fraction(1, 8), Fraction(1, 4)):
        mu_eps = sc.mu_eps(eps)
        assert sc.system.push(mu_eps) == mu_eps
        assert w_infinity(mu_eps, sc.delta_sink).value == sc.d_xy
        assert abs(w_p(mu_eps, sc.delta_sink, 1) - float(eps) * sc.d_xy) <= 1e-12
    report = probe_measure_lyapunov(
        sc.system, sc.delta_sink, sc.default_delta_grid, horizon=14,
        probes_per_cell=2, seed=0, extra_probes=sc.extra_probes("sink"),
    )
    assert report.verdict == UNSTABLE
    assert time.monotonic() - start < 5.0


def test_acceptance_10_torus_shear_values():
    start = time.monotonic()
    # Reduced-size oracle check first: the rotating lopsided orbit agrees with
    # the subset-enumeration oracle at every step.
    small = scenario_torus_shear(8)
    nu0_small, nu1_small = small.lopsided_row(0), small.lopsided_row(1)
    for n in range(9):
        pushed = small.system.push(nu1_small, n)
        assert w_infinity(pushed, nu0_small).value == w_infinity_bruteforce(
            pushed, nu0_small
        )
    sc = scenario_torus_shear(32)
    lam0, lam1 = sc.uniform_row(0), sc.uniform_row(1)
    values = [
        w_infinity(sc.system.push(lam1, n), lam0).value for n in range(33)
    ]
    assert max(values) == 1.0 / 32.0
    nu0, nu1 = sc.lopsided_row(0), sc.lopsided_row(1)
    lopsided_values = [
        w_infinity(sc.system.push(nu1, n), nu0).value for n in range(33)
    ]
    assert max(lopsided_values) >= 0.2
    assert lopsided_values[16] == max(lopsided_values)
    assert lopsided_values[16] >= 0.2
    assert time.monotonic() - start < 120.0


def _cli_cases(tmp_path: Path):
    import json

    space = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    vanishing = write("vanishing.json", {
        "space": space,
        "weights": [{"atom": "x", "num": 1, "den": 4},
                    {"atom": "y", "num": 3, "den": 4}],
    })
    dy = write("dy.json", {
        "space": space, "weights": [{"atom": "y", "num": 1, "den": 1}],
    })
    instance = write("instance.json", {
        "xi": {"space": space, "weights": [
            {"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2},
        ]},
        "sets": [["x", "y"], ["y"]],
        "targets": [{"num": 1, "den": 2}, {"num": 1, "den": 2}],
    })
    sequence = write("seq.json", {
        "space": space,
        "terms": [
            [{"atom": "x", "num": 1, "den": n}, {"atom": "y", "num": n - 1, "den": n}]
            for n in range(2, 8)
        ],
        "limit": [{"atom": "y", "num": 1, "den": 1}],
    })
    return [
        ["dist", vanishing, dy, "--p", "1", "--p", "2", "--plan"],
        ["plan", vanishing, dy, "--format", "csv"],
        ["decompose", instance, "--format", "json"],
        ["converge", sequence, "--format", "json"],
        ["compare", sequence, "--format", "csv"],
        ["stability", "--scenario", "sink_source", "--notion", "measure-lyapunov",
         "--measure", "sink", "--seed", "0", "--format", "json"],
        ["stability", "--scenario", "torus", "--grid-n", "8", "--notion",
         "lyapunov", "--set", "row0", "--horizon", "8", "--seed", "0",
         "--format", "json"],
    ]


def test_acceptance_11_cli_determinism(tmp_path):
    env_src = str(Path(__file__).resolve().parent.parent / "src")

    def run_once(argv):
        return subprocess.run(
            [sys.executable, "-m", "bottleneck_ot.cli", *argv],
            capture_output=True, env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )

    for argv in _cli_cases(tmp_path):
        first = run_once(argv)
        second = run_once(argv)
        assert first.stdout == second.stdout, argv
        assert first.returncode == second.returncode, argv
        assert first.stdout, argv
