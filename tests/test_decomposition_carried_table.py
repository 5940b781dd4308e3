"""`decompose` carries one slack table through its worklist; the reference
rebuilds it at every step (tests/decompose_reference.py).

Both must give the same trace, `max_depth` and components on the property
instances and on the benchmark's feasible `decompose` designs.  The two
table updates are checked on their own against a table built from scratch
for the reduced instance, slack by slack as rationals.
"""
from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from decompose_reference import decompose_rebuilding, epsilon_zero_scan
from hypothesis import given
from test_decomposition import random_feasible_instance
from test_decomposition_properties import PROPERTY_SETTINGS, instances

from bottleneck_ot import fileio
from bottleneck_ot.decomposition import (
    DecompositionInstance,
    _drop_index,
    _shave,
    _shaved_masks,
    _slack_table,
    check_feasibility,
    decompose,
)
from bottleneck_ot.measures import make_measure

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assert_same_run(inst):
    expected = decompose_rebuilding(inst)
    for result in (decompose(inst), decompose(inst, verdict=check_feasibility(inst))):
        assert result.trace == expected.trace
        assert result.max_depth == expected.max_depth
        assert result.components == expected.components
    # The module docstring's argument: a slice never stops at the target alone.
    assert all(label != "Case3.2" for label, _ in expected.trace)


@PROPERTY_SETTINGS
@given(instances())
def test_carried_table_matches_the_rebuild_per_step_reference(inst):
    if check_feasibility(inst).feasible:
        assert_same_run(inst)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_carried_table_matches_the_reference_on_benchmark_designs(seed, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    manifest = inputs.generate("decompose", seed, tmp_path)
    sizes = set()
    for job in manifest["jobs"]:
        if job["feasible"]:
            inst = fileio.load_instance_file(tmp_path / job["file"])
            sizes.add(inst.m)
            assert_same_run(inst)
    assert {10, 12} <= sizes


def as_rationals(table):
    den, cells, slack = table
    return ([Fraction(s, den) for s in slack],
            {mask: (Fraction(mass, den), sorted(atoms)) for mask, (mass, atoms) in cells.items()})


def case3_instances():
    """Instances with positive targets whose proper subsets are all strict."""
    rng = random.Random(1808)
    found = []
    while len(found) < 40:
        inst = random_feasible_instance(rng, n_atoms=rng.randint(2, 9), m=rng.randint(2, 7))
        den, cells, slack = _slack_table(inst.xi.weights, inst.sets, inst.targets)
        if cells and all(t > 0 for t in inst.targets) and min(slack[1:-1]) > 0:
            found.append(inst)
    return found


@pytest.mark.parametrize("inst", case3_instances())
def test_shaving_a_cell_updates_the_table_to_the_reduced_instance(inst):
    # Any slice of the cell, charged to any of its sets, not only the one the
    # construction takes: the identity is linear in eps.
    rng = random.Random(len(inst.xi.weights) * 31 + inst.m)
    table = _slack_table(inst.xi.weights, inst.sets, inst.targets)
    den, cells, slack = table
    psi = rng.choice(sorted(cells))
    p = rng.choice([i for i in range(inst.m) if psi >> i & 1])
    mass, atoms = cells[psi]
    target = int(inst.targets[p] * den)
    eps = rng.choice(sorted({mass, min(mass, target), rng.randint(1, min(mass, target))}))
    shaved = _shaved_masks(inst.m, psi, p)
    assert min(map(slack.__getitem__, shaved), default=None) == epsilon_zero_scan(slack, psi, p)
    assert sorted(shaved) == [s for s in range(1 << inst.m) if s & psi and not s >> p & 1]
    _shave(table, shaved, psi, eps)

    share = Fraction(eps, mass)
    weights = dict(inst.xi.weights)
    for a in atoms:
        weights[a] -= weights[a] * share
    targets = list(inst.targets)
    targets[p] -= Fraction(eps, den)
    reduced = make_measure(inst.xi.space, weights)
    assert as_rationals(table) == as_rationals(_slack_table(reduced.weights, inst.sets, targets))


@pytest.mark.parametrize("seed", range(30))
def test_dropping_a_zero_target_updates_the_table_to_the_reduced_instance(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 8)
    inst = random_feasible_instance(rng, n_atoms=rng.randint(2, 9), m=m)
    k = rng.randrange(m)
    targets = list(inst.targets)
    # Move set k's target to the next set, which takes in set k's atoms: no
    # cell is set k's alone, and about half of the draws merge two cells.
    sets = list(inst.sets)
    other = (k + 1) % m
    sets[other] = sets[other] | sets[k]
    targets[other] += targets[k]
    targets[k] = Fraction(0)
    inst = DecompositionInstance.build(inst.xi, sets, targets)
    assert check_feasibility(inst).feasible
    table = _drop_index(_slack_table(inst.xi.weights, inst.sets, inst.targets), k)
    rebuilt = _slack_table(inst.xi.weights, sets[:k] + sets[k + 1:], targets[:k] + targets[k + 1:])
    assert as_rationals(table) == as_rationals(rebuilt)
