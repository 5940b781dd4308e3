"""The benchmark's span recorder (perfbench/spans.py) wraps package functions
by the name the calling module looks up.  A name that is renamed or deleted is
skipped there and its per-layer metric silently disappears, so every wrapped
name must exist.

The benchmark's output checks (perfbench/checks.py) read the solvers' results
through their public shape (``dataclasses.replace`` on a ``SolveReport``, its
``plan.entries``), so a real result must pass them and every corruption of it
must fail."""
from __future__ import annotations

import importlib.util
from pathlib import Path

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
