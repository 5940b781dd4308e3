import random
import sys
import threading
from fractions import Fraction

import pytest

from bottleneck_ot.decomposition import (
    DecompositionInstance,
    arrangement,
    check_feasibility,
    decompose,
    epsilon_zero,
    feasibility_by_flow,
    verify_decomposition,
)
from bottleneck_ot.errors import (
    CasePreconditionViolated,
    InfeasibleInstance,
    TooManySets,
)
from bottleneck_ot.measures import make_measure


def grid_space(n):
    from bottleneck_ot.spaces import build_space

    return build_space([f"a{i}" for i in range(n)], "euclidean",
                       coords=[[float(i)] for i in range(n)])


def random_feasible_instance(rng: random.Random, n_atoms=8, m=3):
    """Sum random components supported inside random sets: feasible by construction."""
    space = grid_space(n_atoms)
    sets = []
    components = []
    for _ in range(m):
        block = frozenset(rng.sample(range(n_atoms), rng.randint(1, n_atoms)))
        sets.append(block)
        weights = [
            (a, Fraction(rng.randint(0, 6), rng.choice([2, 4, 8])))
            for a in block
        ]
        components.append(make_measure(space, weights))
    xi = components[0]
    for nu in components[1:]:
        xi = xi.add(nu)
    targets = [nu.total_mass for nu in components]
    return DecompositionInstance.build(xi, sets, targets)


def perturb_infeasible(rng: random.Random, instance: DecompositionInstance):
    """Shift target mass between components until some subset bound fails (total kept)."""
    m = instance.m
    for _ in range(50):
        i, j = rng.sample(range(m), 2)
        if instance.targets[i] == 0:
            continue
        shift = instance.targets[i]
        targets = list(instance.targets)
        targets[i] -= shift
        targets[j] += shift
        candidate = DecompositionInstance.build(instance.xi, instance.sets, targets)
        if not check_feasibility(candidate).feasible:
            return candidate
    return None


def test_base_case_single_set():
    space = grid_space(3)
    xi = make_measure(space, [(0, Fraction(1, 2)), (1, Fraction(3, 2))])
    inst = DecompositionInstance.build(xi, [{0, 1, 2}], [xi.total_mass])
    assert check_feasibility(inst).feasible
    result = decompose(inst)
    assert result.components[0] == xi
    assert result.trace == (("Base", 0),)
    assert verify_decomposition(inst, result).valid


def test_zero_target_gives_zero_component():
    space = grid_space(3)
    xi = make_measure(space, [(0, 1), (1, 1)])
    inst = DecompositionInstance.build(xi, [{0, 1}, {2}], [Fraction(2), Fraction(0)])
    result = decompose(inst)
    assert result.components[1].total_mass == 0
    assert result.components[0] == xi
    assert result.trace[0] == ("Case2", 0)
    assert verify_decomposition(inst, result).valid


def test_single_set_violation_witnessed():
    space = grid_space(4)
    xi = make_measure(space, [(0, 1), (2, 1)])
    inst = DecompositionInstance.build(
        xi, [{0}, {2, 3}], [Fraction(3, 2), Fraction(1, 2)]
    )
    verdict = check_feasibility(inst)
    assert not verdict.feasible
    assert verdict.condition == "subset-bound"
    assert verdict.subset == (0,)
    assert verdict.lhs == 1 and verdict.rhs == Fraction(3, 2)
    assert not feasibility_by_flow(inst)
    with pytest.raises(InfeasibleInstance):
        decompose(inst)


def test_decompose_takes_a_computed_verdict():
    rng = random.Random(23)
    for _ in range(10):
        inst = random_feasible_instance(rng, n_atoms=6, m=3)
        verdict = check_feasibility(inst)
        given = decompose(inst, verdict=verdict)
        computed = decompose(inst)
        assert (given.trace, given.components) == (computed.trace, computed.components)
        bad = perturb_infeasible(rng, inst)
        if bad is not None:
            bad_verdict = check_feasibility(bad)
            with pytest.raises(InfeasibleInstance) as caught:
                decompose(bad, verdict=bad_verdict)
            assert caught.value.verdict is bad_verdict


def test_total_mass_violation_witnessed():
    space = grid_space(2)
    xi = make_measure(space, [(0, 1)])
    inst = DecompositionInstance.build(xi, [{0}], [Fraction(2)])
    verdict = check_feasibility(inst)
    assert not verdict.feasible and verdict.condition == "total-mass"
    assert not feasibility_by_flow(inst)


def test_arrangement_examples():
    space = grid_space(4)
    # m=1: all mass inside B_1.
    xi = make_measure(space, [(0, 1)])
    rho, per_k = arrangement(DecompositionInstance.build(xi, [{0, 1}], [Fraction(1)]))
    assert rho == 1 and per_k == (1,)
    # m=2 with mass only in the double intersection.
    inst = DecompositionInstance.build(
        xi, [{0, 1}, {0, 2}], [Fraction(1, 2), Fraction(1, 2)]
    )
    rho, per_k = arrangement(inst)
    assert rho == 1 and per_k == (0, 1)
    # Nested B_1 inside B_2 with mass in both cells.
    xi2 = make_measure(space, [(0, 1), (1, 1)])
    inst2 = DecompositionInstance.build(
        xi2, [{0}, {0, 1}], [Fraction(1), Fraction(1)]
    )
    rho, per_k = arrangement(inst2)
    assert rho == 2 and per_k == (1, 1)


def test_arrangement_bound_on_random_instances():
    rng = random.Random(31)
    for _ in range(30):
        inst = random_feasible_instance(rng, n_atoms=7, m=4)
        rho, per_k = arrangement(inst)
        assert rho == sum(per_k)
        assert rho <= 2 ** inst.m - 1


def test_epsilon_zero_unbounded_for_single_set():
    space = grid_space(2)
    xi = make_measure(space, [(0, 1)])
    inst = DecompositionInstance.build(xi, [{0, 1}], [Fraction(1)])
    assert epsilon_zero(inst, {0}, 0) is None


def test_epsilon_zero_no_candidate_when_psi_is_singleton_p():
    # Proper subsets meeting psi = {0} all contain p = 0, so nothing constrains
    # the subtraction.
    space = grid_space(3)
    xi = make_measure(space, [(0, 1), (1, 1), (2, 2)])
    inst = DecompositionInstance.build(
        xi, [{0, 2}, {1, 2}], [Fraction(2), Fraction(2)]
    )
    assert epsilon_zero(inst, {0}, 0) is None


def test_epsilon_zero_closed_form_matches_direct_scan():
    # All mass in the double cell: subset {1} meets psi and avoids p=0.
    space = grid_space(3)
    xi = make_measure(space, [(0, 4)])
    inst = DecompositionInstance.build(
        xi, [{0, 1}, {0, 2}], [Fraction(2), Fraction(2)]
    )
    eps0 = epsilon_zero(inst, {0, 1}, 0)
    assert eps0 == 2

    def still_feasible(eps: Fraction) -> bool:
        # Subtract eps from the cell (all of xi here) and from x_0, then
        # re-check every proper subset inequality directly.
        xi_new = make_measure(space, [(0, 4 - eps)])
        targets = [Fraction(2) - eps, Fraction(2)]
        for subset in [(0,), (1,)]:
            union = set().union(*(inst.sets[i] for i in subset))
            lhs = xi_new(union)
            rhs = sum(targets[i] for i in subset)
            if lhs < rhs:
                return False
        return True

    grid = [Fraction(k, 8) for k in range(0, 33)]
    max_ok = max(e for e in grid if still_feasible(e))
    assert max_ok == eps0
    # Equality appears at the minimizing subset after the subtraction.
    assert still_feasible(eps0) and not still_feasible(eps0 + Fraction(1, 8))


def test_epsilon_zero_rejects_non_case3_instances():
    space = grid_space(3)
    xi = make_measure(space, [(0, 1), (1, 1)])
    tight = DecompositionInstance.build(xi, [{0}, {1}], [Fraction(1), Fraction(1)])
    with pytest.raises(CasePreconditionViolated):
        epsilon_zero(tight, {0}, 0)
    zero_target = DecompositionInstance.build(
        xi, [{0, 1}, {0, 1}], [Fraction(2), Fraction(0)]
    )
    with pytest.raises(CasePreconditionViolated):
        epsilon_zero(zero_target, {0}, 0)


def test_epsilon_subtraction_preserves_total_balance():
    # Shaving eps off the chosen cell and off the charged target keeps the
    # instance feasible: both sides of the total-mass equality drop by eps.
    space = grid_space(3)
    xi = make_measure(space, [(0, 4)])
    inst = DecompositionInstance.build(
        xi, [{0, 1}, {0, 2}], [Fraction(2), Fraction(2)]
    )
    eps0 = epsilon_zero(inst, {0, 1}, 0)
    reduced = DecompositionInstance.build(
        make_measure(space, [(0, 4 - eps0)]),
        inst.sets,
        [Fraction(2) - eps0, Fraction(2)],
    )
    assert check_feasibility(reduced).feasible
    assert feasibility_by_flow(reduced)


def test_epsilon_zero_requires_p_in_psi():
    space = grid_space(3)
    xi = make_measure(space, [(0, 4)])
    inst = DecompositionInstance.build(
        xi, [{0, 1}, {0, 2}], [Fraction(2), Fraction(2)]
    )
    with pytest.raises(ValueError):
        epsilon_zero(inst, {1}, 0)


def test_arrangement_cap():
    space = grid_space(2)
    xi = make_measure(space, [(0, 15)])
    inst = DecompositionInstance.build(
        xi, [{0}] * 15, [Fraction(1)] * 15
    )
    with pytest.raises(TooManySets):
        arrangement(inst)


def test_case3_instance_decomposes_and_verifies():
    space = grid_space(3)
    xi = make_measure(space, [(0, 4)])
    inst = DecompositionInstance.build(
        xi, [{0, 1}, {0, 2}], [Fraction(2), Fraction(2)]
    )
    result = decompose(inst)
    assert result.trace[0][0].startswith("Case3")
    assert verify_decomposition(inst, result).valid


def test_overlapping_three_set_instance():
    space = grid_space(8)
    xi = make_measure(space, [(a, Fraction(1, 4)) for a in range(8)])
    sets = [frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5}), frozenset({4, 5, 6, 7})]
    targets = [Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    inst = DecompositionInstance.build(xi, sets, targets)
    assert check_feasibility(inst).feasible
    assert feasibility_by_flow(inst)
    result = decompose(inst)
    assert verify_decomposition(inst, result).valid
    assert len(result.trace) >= 1


def test_verify_catches_planted_violations():
    space = grid_space(3)
    xi = make_measure(space, [(0, 1), (1, 1)])
    inst = DecompositionInstance.build(xi, [{0}, {1}], [Fraction(1), Fraction(1)])
    good = decompose(inst)
    assert verify_decomposition(inst, good).valid

    from bottleneck_ot.decomposition import DecompositionResult

    leaked = DecompositionResult(
        (make_measure(space, [(1, 1)]), make_measure(space, [(0, 1)])), (), 0
    )
    verdict = verify_decomposition(inst, leaked)
    assert not verdict.valid and verdict.condition == "support" and verdict.index == 0

    wrong_total = DecompositionResult(
        (make_measure(space, [(0, 1)]), make_measure(space, [(1, Fraction(1, 2))])), (), 0
    )
    verdict = verify_decomposition(inst, wrong_total)
    assert not verdict.valid and verdict.condition == "component-mass" and verdict.index == 1


def test_generated_instances_decompose_and_match_flow_oracle():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(1, 5)
        inst = random_feasible_instance(rng, n_atoms=rng.randint(4, 10), m=m)
        assert check_feasibility(inst).feasible
        assert feasibility_by_flow(inst)
        result = decompose(inst)
        assert verify_decomposition(inst, result).valid
        assert result.max_depth <= (2 ** inst.m - 1) * inst.m


def test_perturbed_instances_rejected_by_both_routes():
    rng = random.Random(271)
    found = 0
    while found < 20:
        inst = random_feasible_instance(rng, n_atoms=6, m=3)
        bad = perturb_infeasible(rng, inst)
        if bad is None:
            continue
        found += 1
        verdict = check_feasibility(bad)
        assert not verdict.feasible
        assert verdict.condition in ("subset-bound", "total-mass")
        assert not feasibility_by_flow(bad)
        with pytest.raises(InfeasibleInstance):
            decompose(bad)


def test_larger_instance_with_many_cells():
    # Eight overlapping sets over a dozen atoms: exercises long cell-removal
    # chains and the recursion-depth bound at a size the caps still allow.
    rng = random.Random(4242)
    inst = random_feasible_instance(rng, n_atoms=12, m=8)
    result = decompose(inst)
    assert verify_decomposition(inst, result).valid
    assert result.max_depth <= (2 ** inst.m - 1) * inst.m
    rho, _ = arrangement(inst)
    assert rho <= 2 ** inst.m - 1


def test_too_many_sets_guard():
    space = grid_space(2)
    xi = make_measure(space, [(0, 13)])
    sets = [{0}] * 13
    targets = [Fraction(1)] * 13
    inst = DecompositionInstance.build(xi, sets, targets)
    with pytest.raises(TooManySets):
        decompose(inst)


# The construction's choices, pinned: the Case1 scan order (by cardinality,
# then lexicographic) and the Case3 cell (smallest occupied mask, charged to
# its lowest set) must not drift.  Traces are "label@depth".
PINNED_M8_TRACE = (
    "Case3.3@0 Case3.3@1 Case3.3@2 Case3.1@3 Case2@4 Case3.3@5 Case3.3@6 "
    "Case3.1@7 Case2@8 Case3.3@9 Case3.1@10 Case2@11 Case3.1@12 Case2@13 "
    "Case3.1@14 Case2@15 Case3.3@16 Case3.1@17 Case2@18 Case3.3@19 "
    "Case3.1@20 Case2@21 Base@22"
)
PINNED_M8_COMPONENTS = [
    {0: "1/2", 2: "9/4", 8: "23/8"},
    {1: "105/44", 5: "9/8", 10: "49/44"},
    {0: "29/8", 4: "65/128", 7: "55/64", 9: "225/128"},
    {6: "11/4"},
    {1: "15/11", 3: "1", 4: "247/640", 7: "209/320", 9: "171/128", 10: "7/11"},
    {11: "1"},
    {4: "429/640", 7: "363/320", 9: "297/128"},
    {4: "39/640", 6: "15/4", 7: "33/320", 9: "27/128", 11: "13/2"},
]
PINNED_M12_TRACE = (
    "Case3.3@0 Case3.1@1 Case2@2 Case3.3@3 Case3.3@4 Case3.1@5 Case2@6 "
    "Case3.1@7 Case2@8 Case3.3@9 Case3.1@10 Case2@11 Case3.3@12 Case3.3@13 "
    "Case3.1@14 Case2@15 Case3.3@16 Case3.1@17 Case2@18 Case3.3@19 "
    "Case3.1@20 Case1@21 Base@22 Case3.1@22 Case2@23 Case3.3@24 Case3.1@25 "
    "Case2@26 Case3.1@27 Case2@28 Case3.1@29 Case2@30 Base@31"
)
PINNED_M12_COMPONENTS = [
    {3: "15/2", 7: "7/8"},
    {0: "43/8", 5: "1/8", 7: "19/8"},
    {5: "37/8"},
    {1: "11/4"},
    {5: "45/8", 11: "7/2"},
    {11: "1", 12: "9/8", 13: "69/8"},
    {10: "13/4", 12: "63/8"},
    {1: "5/8", 2: "1491/656", 4: "357/164", 6: "33/8", 8: "315/164", 9: "987/656", 10: "5/8"},
    {6: "17/8"},
    {2: "2059/656", 4: "493/164", 8: "435/164", 9: "1363/656"},
    {2: "781/656", 4: "187/164", 8: "165/164", 9: "517/656"},
    {2: "1491/656", 4: "357/164", 8: "315/164", 9: "987/656"},
]


@pytest.mark.parametrize("seed, n_atoms, m, trace, max_depth, components", [
    (4242, 12, 8, PINNED_M8_TRACE, 22, PINNED_M8_COMPONENTS),
    (1212, 14, 12, PINNED_M12_TRACE, 31, PINNED_M12_COMPONENTS),
], ids=["m8", "m12"])
def test_construction_choices_are_pinned(seed, n_atoms, m, trace, max_depth, components):
    inst = random_feasible_instance(random.Random(seed), n_atoms=n_atoms, m=m)
    result = decompose(inst)
    assert " ".join(f"{label}@{depth}" for label, depth in result.trace) == trace
    assert result.max_depth == max_depth
    assert [{a: str(w) for a, w in nu.items()} for nu in result.components] == components
    assert verify_decomposition(inst, result).valid


def test_decompose_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("decompose must not change the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    inst = random_feasible_instance(random.Random(4242), n_atoms=12, m=8)
    assert verify_decomposition(inst, decompose(inst)).valid


def test_decompose_from_threads_matches_serial_runs():
    instances = [
        random_feasible_instance(random.Random(seed), n_atoms=n_atoms, m=m)
        for seed, n_atoms, m in ((4242, 12, 8), (1212, 14, 12), (77, 10, 10), (5, 9, 6))
    ]
    serial = [decompose(inst) for inst in instances]
    results = [None] * len(instances)

    def run(k):
        results[k] = decompose(instances[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(instances))]
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
