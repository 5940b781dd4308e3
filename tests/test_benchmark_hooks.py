"""The benchmark's span recorder (perfbench/spans.py) wraps package functions
by the name the calling module looks up.  A name that is renamed or deleted is
skipped there and its per-layer metric silently disappears, so every wrapped
name must exist.  A flow call routed around the wrapped names reads as zero
flow calls and no edges built, without any error, so the solvers' flow calls
must reach the recorder.

The benchmark's output checks (perfbench/checks.py) read the solvers' results
through their public shape (``dataclasses.replace`` on a ``SolveReport``, its
``plan.entries``), so a real result must pass them and every corruption of it
must fail.  The same holds for the ``torus`` check, which reads the stability
probes' JSON reports."""
from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

from bottleneck_ot import decomposition, transport
from bottleneck_ot.measures import make_measure
from bottleneck_ot.spaces import build_space

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_span_recorder_wraps_exists():
    recorder = _load("spans").Recorder()
    try:
        recorder.install()
        assert recorder.missing == []
    finally:
        recorder.uninstall()


def test_solve_check_passes_real_results_and_rejects_every_corruption(tmp_path):
    inputs, workloads, checks = _load("inputs"), _load("workloads"), _load("checks")
    manifest = inputs.generate("solve", 1, tmp_path)
    workload = workloads.WORKLOADS["solve"](tmp_path, manifest)
    state = workload.setup()
    jobs = [next(job for job in manifest["jobs"] if job["kind"] == kind)
            for kind in ("support24", "support28")]
    for job in jobs:
        output = workload.run(state, job)
        assert checks.check_solve(tmp_path, manifest, state, job, output) == []
        corrupted = list(checks.corrupt_solve(tmp_path, manifest, state, job, output))
        assert len(corrupted) == 3
        for what, bad in corrupted:
            assert checks.check_solve(tmp_path, manifest, state, job, bad), what


def test_torus_check_passes_real_outputs_and_rejects_every_corruption(tmp_path):
    inputs, workloads, checks = _load("inputs"), _load("workloads"), _load("checks")
    manifest = inputs.generate("torus", 1, tmp_path)
    workload = workloads.WORKLOADS["torus"](tmp_path, manifest)
    state = workload.setup()
    jobs = {}
    for job in manifest["jobs"]:
        jobs.setdefault(job["kind"], job)
    assert {job["notion"] for job in jobs.values()} == {
        "lyapunov", "measure-lyapunov", "asymptotic", "exponential", "attractor"}
    for job in jobs.values():
        output = workload.run(state, job)
        assert checks.check_torus(tmp_path, manifest, state, job, output) == [], job["kind"]
        corrupted = list(checks.corrupt_torus(tmp_path, manifest, state, job, output))
        assert len(corrupted) == (1 if job["notion"] == "attractor" else 2)
        for what, bad in corrupted:
            assert checks.check_torus(tmp_path, manifest, state, job, bad), (job["kind"], what)


def test_flow_calls_reach_the_span_recorder():
    # mu's atoms at 0 and 1 are each covered by nu's 1/2 at 0.5, but not
    # both: the singleton-Hall bound 0.5 fails, and the chase steps to d(1, 4).
    space = build_space([f"p{i}" for i in range(6)], "euclidean",
                        coords=[[0.0], [1.0], [0.5], [5.0], [5.05], [5.1]])
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    mu = make_measure(space, [(0, third), (1, third), (3, third)])
    nu = make_measure(space, [(2, Fraction(1, 2)), (4, quarter), (5, quarter)])
    instance = decomposition.DecompositionInstance.build(mu, [{0, 1}, {1, 3}], [third, 2 * third])
    recorder = _load("spans").Recorder()
    try:
        recorder.install()
        recorder.job_id = 0
        report = transport.w_infinity(mu, nu)
        transport.w_p(mu, nu, 1)
        assert decomposition.feasibility_by_flow(instance)
    finally:
        recorder.uninstall()
    assert (report.value, report.feasibility_calls) == (space.d(1, 4), 2)
    spans = [recorder.names[k] for k in recorder.name]
    assert spans.count("flows.max_flow") == report.feasibility_calls + 1
    assert spans.count("flows.min_cost_flow") == 1
    assert recorder.job_counts["flows.edges_built"] > 0
