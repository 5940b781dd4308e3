"""Span recorder for the traced run, and the per-layer metrics computed from it.

The recorder wraps public functions of the package at the name the calling
module looks up (``bottleneck_ot.stability.w_infinity``, not only
``bottleneck_ot.transport.w_infinity``), so the program itself is unchanged.
Each call becomes a span: name, start, end, parent span and job id (job k
is k >= 0, set-up k is -1 - k).  Spans are kept in flat arrays in memory and
written once, when the run ends.  Self time is a span's duration minus the
durations of its direct children; the run is single-threaded, so children
never overlap.  Times are scaled by the calibration factor of the job or
set-up they belong to, as the end-to-end times are.

A wrapped name that no longer exists is listed in ``missing`` and the
metrics that depend on it are left out; the run goes on.
"""
from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from bottleneck_ot import cli, convergence, decomposition, fileio, measures, spaces, stability, transport

SETUP = -1  # job id of the first set-up; set-up k is SETUP - k


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = SETUP
        self.setup_counts: dict = defaultdict(int)
        self.job_counts: dict = defaultdict(int)
        self.max_depth = 0
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def count(self, key: str, amount: int = 1) -> None:
        (self.setup_counts if self.job_id < 0 else self.job_counts)[key] += amount

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        span_id = self._ids.setdefault(span, len(self.names))
        if span_id == len(self.names):
            self.names.append(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(span_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, span, hook in _targets(self):
            self.wrap(owner, attr, span, hook)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path, summary: dict) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["job", "i"],
                             ["start", "d"], ["end", "d"]],
                  "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize},
                  "missing": self.missing, "summary": summary}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)

    def layer_metrics(self, job_scale: list, setup_scale: list) -> dict:
        """Per-layer metrics: set-up figures per set-up, job figures per job.

        ``job_scale[k]`` and ``setup_scale[k]`` are the calibration factors of
        job k and set-up k.

        A metric whose span was never wrapped, because its name is gone from
        the package, is left out; a span that was wrapped but not called on
        this workload reads 0.
        """
        n_jobs, n_setups = len(job_scale), len(setup_scale)
        name, parent, job, start, end = self.name, self.parent, self.job, self.start, self.end
        scale = [job_scale[j] if j >= 0 else setup_scale[SETUP - j] for j in job]
        child_time = defaultdict(float)
        for i in range(len(start)):
            if parent[i] >= 0:
                child_time[parent[i]] += (end[i] - start[i]) * scale[i]
        incl = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i in range(len(start)):
            key = (job[i] < 0, name[i])
            dur = (end[i] - start[i]) * scale[i]
            calls[key] += 1
            self_time[key] += dur - child_time.get(i, 0.0)
            # Inclusive time skips a span whose parent has the same name, so a
            # nested call is not counted twice.
            if parent[i] < 0 or name[parent[i]] != name[i]:
                incl[key] += dur

        setup_counts, job_counts = self.setup_counts, self.job_counts
        solves = job_counts["transport.solves"] or 1

        def span_value(kind, sid):
            if kind == "setup_s":
                return incl[(True, sid)] / n_setups
            if kind == "s":
                return incl[(False, sid)] / n_jobs
            if kind == "self_s":
                return self_time[(False, sid)] / n_jobs
            return calls[(False, sid)] / n_jobs

        def counter_value(kind, counter):
            if kind == "setup_count":
                return setup_counts[counter] / n_setups
            if kind == "per_solve":
                return job_counts[counter] / solves
            if kind == "max":
                return self.max_depth
            return job_counts[counter] / n_jobs

        out = {}
        for metric, kind, spans, counter in _METRICS:
            if not all(span in self._ids for span in spans):
                continue
            if counter is None and kind != "max":
                value = sum(span_value(kind, self._ids[span]) for span in spans)
            else:
                value = counter_value(kind, counter)
            unit = "s" if kind in ("setup_s", "s", "self_s") else "count"
            out[metric] = {"value": value, "unit": unit}
        return out


# (metric, kind, spans it is read from, counter name).  Counts and times of
# jobs are per job; set-up figures are per set-up.
_METRICS = (
    ("fileio.load_s", "setup_s", ("fileio.load",), None),
    ("spaces.build_s", "setup_s", ("spaces.build",), None),
    ("spaces.matrix_entries", "setup_count", ("spaces.build",), "spaces.matrix_entries"),
    ("spaces.neighborhood_calls", "calls", ("spaces.neighborhood",), None),
    ("spaces.neighborhood_s", "s", ("spaces.neighborhood",), None),
    ("spaces.hausdorff_s", "s", ("spaces.hausdorff",), None),
    ("measures.pushforward_calls", "calls", ("measures.pushforward",), None),
    ("measures.pushforward_s", "s", ("measures.pushforward",), None),
    ("measures.mass_query_s", "s", ("measures.mass_query",), None),
    ("flows.max_flow_calls", "calls", ("flows.max_flow",), None),
    ("flows.max_flow_s", "s", ("flows.max_flow",), None),
    ("flows.min_cost_flow_calls", "calls", ("flows.min_cost_flow",), None),
    ("flows.min_cost_flow_s", "s", ("flows.min_cost_flow",), None),
    ("flows.edges_built", "count", ("flows.max_flow", "flows.min_cost_flow"), "flows.edges_built"),
    ("transport.w_infinity_calls", "calls", ("transport.w_infinity",), None),
    ("transport.w_infinity_self_s", "self_s", ("transport.w_infinity",), None),
    ("transport.flow_calls_per_solve", "per_solve", ("transport.w_infinity",), "transport.feasibility_calls"),
    ("transport.thresholds_per_solve", "per_solve", ("transport.w_infinity",), "transport.thresholds_tested"),
    ("transport.w_p_calls", "calls", ("transport.w_p",), None),
    ("transport.w_p_self_s", "self_s", ("transport.w_p",), None),
    ("decomposition.check_s", "s", ("decomposition.check_feasibility",), None),
    ("decomposition.decompose_s", "s", ("decomposition.decompose",), None),
    ("decomposition.steps", "count", ("decomposition.decompose",), "decomposition.steps"),
    ("decomposition.case1", "count", ("decomposition.decompose",), "decomposition.case1"),
    ("decomposition.case2", "count", ("decomposition.decompose",), "decomposition.case2"),
    ("decomposition.case3", "count", ("decomposition.decompose",), "decomposition.case3"),
    ("decomposition.max_depth", "max", ("decomposition.decompose",), None),
    ("convergence.verdict_self_s", "self_s", ("convergence.verdict",), None),
    ("convergence.mass_checks", "calls", ("convergence.mass_check",), None),
    ("convergence.mass_check_s", "s", ("convergence.mass_check",), None),
    ("stability.probe_self_s", "self_s", ("stability.probe", "stability.orbit_step"), None),
    ("stability.probes", "count", ("stability.probe",), "stability.probes"),
    ("stability.orbit_steps", "calls", ("stability.orbit_step",), None),
    ("cli.self_s", "self_s", ("cli.main",), None),
)


def _targets(rec: Recorder):
    """(owner, attribute, span name, result hook) for every wrapped name."""

    def built(args, space):
        rec.count("spaces.matrix_entries", space.n_points ** 2)

    def edges(args, result):
        if len(args) > 1 and hasattr(args[1], "__len__"):
            rec.count("flows.edges_built", len(args[1]))

    def solved(args, report):
        rec.count("transport.solves")
        rec.count("transport.feasibility_calls", report.feasibility_calls)
        rec.count("transport.thresholds_tested", report.thresholds_tested)

    def decomposed(args, result):
        labels = [label for label, _ in result.trace]
        rec.count("decomposition.steps", len(labels))
        rec.count("decomposition.case1", labels.count("Case1"))
        rec.count("decomposition.case2", labels.count("Case2"))
        rec.count("decomposition.case3", sum(label.startswith("Case3") for label in labels))
        rec.max_depth = max(rec.max_depth, result.max_depth)

    def probed(args, report):
        rec.count("stability.probes", len(report.records))

    yield from (
        (fileio, "load_json", "fileio.load", None),
        (fileio, "parse_space", "fileio.load", None),
        (fileio, "parse_weights", "fileio.load", None),
        (fileio, "load_instance_file", "fileio.load", None),
        (fileio, "load_sequence_file", "fileio.load", None),
        (fileio, "build_space", "spaces.build", built),
        (stability, "build_space", "spaces.build", built),
        (spaces.FiniteMetricSpace, "neighborhood", "spaces.neighborhood", None),
        (convergence, "hausdorff", "spaces.hausdorff", None),
        (stability, "hausdorff", "spaces.hausdorff", None),
        (stability, "pushforward", "measures.pushforward", None),
        (measures.DiscreteMeasure, "__call__", "measures.mass_query", None),
        (transport, "max_flow", "flows.max_flow", edges),
        (decomposition, "max_flow", "flows.max_flow", edges),
        (transport, "min_cost_max_flow", "flows.min_cost_flow", edges),
        (transport, "w_infinity", "transport.w_infinity", solved),
        (convergence, "w_infinity", "transport.w_infinity", solved),
        (stability, "w_infinity", "transport.w_infinity", solved),
        (cli, "w_infinity", "transport.w_infinity", solved),
        (transport, "w_p", "transport.w_p", None),
        (convergence, "w_p", "transport.w_p", None),
        (cli, "w_p", "transport.w_p", None),
        (decomposition, "check_feasibility", "decomposition.check_feasibility", None),
        (decomposition, "decompose", "decomposition.decompose", decomposed),
        (decomposition, "verify_decomposition", "decomposition.verify", None),
        (convergence, "d_convergence_verdict", "convergence.verdict", None),
        (convergence, "separating_mass_check", "convergence.mass_check", None),
        (cli, "probe_lyapunov", "stability.probe", probed),
        (cli, "probe_measure_lyapunov", "stability.probe", probed),
        (cli, "probe_asymptotic", "stability.probe", probed),
        (cli, "probe_attractor", "stability.probe", probed),
        (cli, "probe_exponential", "stability.probe", probed),
        (stability.MapSystem, "push", "stability.orbit_step", None),
        (stability.MapSystem, "image_of_set", "stability.orbit_step", None),
        (stability, "scenario_torus_shear", "stability.scenario", None),
        (cli, "main", "cli.main", None),
    )
