"""The program side of each workload: set-up and one job.

A job is the library call sequence that one CLI subcommand makes.  Calls go
through module attributes (``transport.w_infinity``, not a name imported
into this file) so the traced run sees them.  ``fingerprint`` reduces a
job's output to a value that must be equal in every round of a run.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

from bottleneck_ot import cli, convergence, decomposition, fileio, stability, transport


class Solve:
    """``dist --p 1 --plan`` on pairs that share one space loaded in set-up."""

    def __init__(self, inputs: Path, manifest: dict):
        self.inputs = inputs
        self.manifest = manifest

    def setup(self):
        space = fileio.parse_space(fileio.load_json(self.inputs / self.manifest["space_file"]))
        pairs = fileio.load_json(self.inputs / self.manifest["pairs_file"])["pairs"]
        return space, [
            (fileio.parse_weights(space, a), fileio.parse_weights(space, b)) for a, b in pairs
        ]

    @staticmethod
    def run(state, job):
        mu, nu = state[1][job["pair"]]
        report = transport.w_infinity(mu, nu)
        return report, transport.w_p(mu, nu, 1)

    @staticmethod
    def fingerprint(output):
        report, w1 = output
        return report.value, report.plan.entries, w1


class Torus:
    """``cli stability --scenario torus`` in-process, stdout captured.

    Set-up builds the scenario; the CLI's own ``scenario_torus_shear`` call
    then finds it in the package's scenario cache, as it would for a caller
    that keeps the process alive between runs.  Each set-up empties that
    cache first so that it builds the scenario anew.
    """

    def __init__(self, inputs: Path, manifest: dict):
        self.n = manifest["grid_n"]

    def setup(self):
        cached = getattr(stability, "_torus_scenario_cached", None)
        if cached is not None and hasattr(cached, "cache_clear"):
            cached.cache_clear()
        return stability.scenario_torus_shear(self.n)

    @staticmethod
    def run(state, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def fingerprint(output):
        return output


class Decompose:
    """``cli decompose``: feasibility check, then decomposition and verification."""

    def __init__(self, inputs: Path, manifest: dict):
        self.files = sorted({inputs / job["file"] for job in manifest["jobs"]})

    def setup(self):
        return {path.name: fileio.load_instance_file(path) for path in self.files}

    @staticmethod
    def run(state, job):
        instance = state[job["file"]]
        verdict = decomposition.check_feasibility(instance)
        if not verdict.feasible:
            return instance, verdict, None, None
        result = decomposition.decompose(instance)
        return instance, verdict, result, decomposition.verify_decomposition(instance, result)

    @staticmethod
    def fingerprint(output):
        _, verdict, result, check = output
        if result is None:
            return str(verdict)
        return result.trace, tuple(tuple(c.items()) for c in result.components), str(check)


class Converge:
    """``cli converge``: the convergence verdict of one sequence file."""

    def __init__(self, inputs: Path, manifest: dict):
        self.files = sorted({inputs / job["file"] for job in manifest["jobs"]})

    def setup(self):
        return {path.name: fileio.load_sequence_file(path) for path in self.files}

    @staticmethod
    def run(state, job):
        sequence = state[job["file"]]
        return sequence, convergence.d_convergence_verdict(sequence)

    @staticmethod
    def fingerprint(output):
        return output[1]


WORKLOADS = {"solve": Solve, "torus": Torus, "decompose": Decompose, "converge": Converge}
