"""Property tests for the decomposition: feasible and perturbed instances up to m = 8.

The witness oracle is a direct scan of index subsets by cardinality, then
lexicographically, summing exact `Fraction` masses over each union.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_ot.decomposition import (
    DecompositionInstance,
    check_feasibility,
    decompose,
    feasibility_by_flow,
    verify_decomposition,
)
from bottleneck_ot.errors import InfeasibleInstance
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)

masses = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 4, 8]))
positive = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 8]))


@st.composite
def instances(draw):
    """A feasible instance summed from components inside its sets, then maybe perturbed.

    "overload" raises one target above the mass of its set and lowers the
    others by as much as they hold (totals kept), "uncovered" adds mass
    outside every set to xi and to one target, "excess" raises one target
    alone; each may or may not break feasibility.
    """
    n_atoms = draw(st.integers(1, 10))
    m = draw(st.integers(1, 8))
    space = build_space([f"a{i}" for i in range(n_atoms)], "euclidean",
                        coords=[[float(i)] for i in range(n_atoms)])
    atoms = st.integers(0, n_atoms - 1)
    sets = [draw(st.frozensets(atoms, max_size=n_atoms)) for _ in range(m)]
    weights: dict = {}
    targets = []
    for block in sets:
        parts = {a: draw(masses) for a in sorted(block)}
        for a, w in parts.items():
            weights[a] = weights.get(a, Fraction(0)) + w
        targets.append(sum(parts.values(), Fraction(0)))
    kind = draw(st.sampled_from(["none", "overload", "uncovered", "excess"]))
    if kind == "overload":
        k = draw(st.integers(0, m - 1))
        lift = sum((weights[a] for a in sets[k]), Fraction(0)) - targets[k] + draw(positive)
        for j in draw(st.permutations([j for j in range(m) if j != k])):
            take = min(lift, targets[j])
            targets[j] -= take
            targets[k] += take
            lift -= take
    elif kind == "uncovered":
        extra = draw(positive)
        outside = [a for a in range(n_atoms) if not any(a in block for block in sets)]
        a = draw(st.sampled_from(outside)) if outside else 0
        weights[a] = weights.get(a, Fraction(0)) + extra
        targets[draw(st.integers(0, m - 1))] += extra
    elif kind == "excess":
        targets[draw(st.integers(0, m - 1))] += draw(positive)
    return DecompositionInstance.build(make_measure(space, weights), sets, targets)


def first_violation(inst: DecompositionInstance):
    """(condition, subset, lhs, rhs) of the first failing condition, or None."""
    total = sum(inst.targets, Fraction(0))
    if inst.xi.total_mass != total:
        return "total-mass", tuple(range(inst.m)), inst.xi.total_mass, total
    for size in range(1, inst.m + 1):
        for subset in combinations(range(inst.m), size):
            lhs = inst.xi(set().union(*(inst.sets[i] for i in subset)))
            rhs = sum((inst.targets[i] for i in subset), Fraction(0))
            if lhs < rhs:
                return "subset-bound", subset, lhs, rhs
    return None


@PROPERTY_SETTINGS
@given(instances())
def test_feasibility_check_agrees_with_flow_oracle(inst):
    assert check_feasibility(inst).feasible == feasibility_by_flow(inst)


@PROPERTY_SETTINGS
@given(instances())
def test_witness_is_the_first_violated_subset(inst):
    verdict = check_feasibility(inst)
    expected = first_violation(inst)
    if expected is None:
        assert verdict.feasible
    else:
        assert (verdict.condition, verdict.subset, verdict.lhs, verdict.rhs) == expected


@PROPERTY_SETTINGS
@given(instances())
def test_decompose_output_verifies_within_the_depth_bound(inst):
    if not check_feasibility(inst).feasible:
        with pytest.raises(InfeasibleInstance):
            decompose(inst)
        return
    result = decompose(inst)
    assert verify_decomposition(inst, result).valid
    assert result.max_depth <= (2 ** inst.m - 1) * inst.m
