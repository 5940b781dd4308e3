"""Record the `stability` CLI matrix pinned by tests/test_stability_cli_outputs.py.

Run it against a source tree, normally an unpacked copy of the parent commit
(`git archive <rev> | tar -x -C <dir>`), to regenerate the golden file:

    python tests/data/record_cli_outputs.py --src <dir> \
        --out tests/data/stability_cli_outputs.json

Each argv runs in-process through `bottleneck_ot.cli.main`.  The input files
it needs are written to a temporary directory; argv entries refer to them as
`{dir}/<name>`, and the file contents are stored with the cases so that the
replay test can write them again.  Exit code and stdout are recorded for
every case, stderr only where it holds no path of the temporary directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

TWO_POINTS = {"points": ["x", "y"], "metric": "euclidean", "coords": [[0.0], [1.0]]}
LINE = {"points": ["a", "b", "c"], "metric": "euclidean", "coords": [[0.0], [1.0], [3.0]]}

FILES = {
    "identity.json": {"space": TWO_POINTS, "map": {"x": "x", "y": "y"}},
    "drain.json": {"space": LINE, "map": {"a": "a", "b": "a", "c": "c"}},
    "half.json": {"space": TWO_POINTS, "weights": [
        {"atom": "x", "num": 1, "den": 2}, {"atom": "y", "num": 1, "den": 2}]},
    "half_no_dot": {"space": TWO_POINTS, "weights": [
        {"atom": "x", "num": 1, "den": 4}, {"atom": "y", "num": 3, "den": 4}]},
    "drain_fixed.json": {"space": LINE, "weights": [
        {"atom": "a", "num": 2, "den": 3}, {"atom": "c", "num": 1, "den": 3}]},
    "drain_moving.json": {"space": LINE, "weights": [
        {"atom": "b", "num": 1, "den": 1}]},
    "garbled.json": "{not json",
    "bad_map.json": {"space": TWO_POINTS, "map": {"x": "x"}},
}

SINK = ["stability", "--scenario", "sink_source"]
TORUS = ["stability", "--scenario", "torus", "--grid-n", "8"]
IDENTITY = ["stability", "--system", "{dir}/identity.json"]
DRAIN = ["stability", "--system", "{dir}/drain.json"]
SET_NOTIONS = ("lyapunov", "asymptotic", "attractor", "exponential")
ROW0_IDS = ",".join(f"x{i}y0" for i in range(8))


def _cases():
    cases = []
    for fmt in ("table", "json"):
        tail = ["--format", fmt]
        for name in ("sink", "source", "mu_eps:1/8", "mu_eps:1/4"):
            cases.append(SINK + ["--notion", "measure-lyapunov", "--measure", name] + tail)
        for notion in SET_NOTIONS:
            for token in ("sink", "source", "sink,b1"):
                cases.append(SINK + ["--notion", notion, "--set", token] + tail)
        cases.append(SINK + ["--notion", "lyapunov", "--measure", "sink"] + tail)
        cases.append(SINK + ["--n-basin", "4", "--d-xy", "2.0", "--notion",
                             "measure-lyapunov", "--measure", "mu_eps:1/8"] + tail)
        for name in ("uniform_row0", "uniform_row3", "lopsided_row0"):
            cases.append(TORUS + ["--notion", "measure-lyapunov", "--measure", name,
                                  "--horizon", "4"] + tail)
        for notion in SET_NOTIONS:
            cases.append(TORUS + ["--notion", notion, "--set", "row3", "--horizon", "6"] + tail)
        cases.append(IDENTITY + ["--notion", "measure-lyapunov", "--measure",
                                 "{dir}/half.json", "--horizon", "3"] + tail)
        cases.append(DRAIN + ["--notion", "lyapunov", "--set", "a"] + tail)
    cases += [
        # Scenario flags and explicit grids.
        SINK + ["--n-basin", "4", "--d-xy", "2.0", "--notion", "lyapunov", "--set", "sink"],
        SINK + ["--n-basin", "3", "--notion", "exponential", "--set", "sink",
                "--eps", "0.9", "--delta", "0.25", "--delta", "0.5", "--horizon", "8"],
        SINK + ["--notion", "lyapunov", "--set", "sink", "--eps", "0.3", "--delta", "0.1",
                "--delta", "0.2", "--horizon", "5", "--probes", "3", "--seed", "7"],
        SINK + ["--notion", "asymptotic", "--set", "sink", "--tol", "0.1", "--probes", "1"],
        SINK + ["--notion", "attractor", "--set", "sink", "--n-max", "3"],
        SINK + ["--notion", "attractor", "--set", "source", "--n-max", "1", "--eps", "0.3"],
        SINK + ["--notion", "lyapunov", "--measure", "sink", "--set", "sink"],
        # Torus names, explicit ids, routing and a measure on another space.
        TORUS + ["--notion", "measure-lyapunov", "--measure", "lopsided_row2", "--horizon", "8"],
        TORUS + ["--notion", "lyapunov", "--measure", "uniform_row1", "--horizon", "3"],
        TORUS + ["--notion", "lyapunov", "--set", "row0", "--horizon", "8"],
        TORUS + ["--notion", "asymptotic", "--set", "row-1", "--horizon", "3"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "uniform_row-1", "--horizon", "3"],
        TORUS + ["--notion", "lyapunov", "--set", ROW0_IDS, "--horizon", "8"],
        TORUS + ["--notion", "attractor", "--set", ROW0_IDS],
        TORUS + ["--notion", "exponential", "--set", "x0y0", "--horizon", "4"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "{dir}/half.json"],
        ["stability", "--scenario", "torus", "--grid-n", "4", "--notion", "measure-lyapunov",
         "--measure", "uniform_row1"],
        # System files, including a measure path with no dot.
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "{dir}/half_no_dot",
                    "--horizon", "3"],
        IDENTITY + ["--notion", "lyapunov", "--measure", "{dir}/half.json"],
        IDENTITY + ["--notion", "attractor", "--set", "x,y"],
        IDENTITY + ["--notion", "exponential", "--set", "x"],
        DRAIN + ["--notion", "asymptotic", "--set", "a"],
        DRAIN + ["--notion", "attractor", "--set", "a,c"],
        DRAIN + ["--notion", "exponential", "--set", "a", "--horizon", "4"],
        DRAIN + ["--notion", "measure-lyapunov", "--measure", "{dir}/drain_fixed.json",
                 "--delta", "0.5", "--delta", "1.5"],
        # Exit 2: unknown or garbled names.
        SINK + ["--notion", "measure-lyapunov", "--measure", "zzz"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "uniform_row0"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:abc"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:3/2"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:-1/8"],
        SINK + ["--notion", "measure-lyapunov", "--measure", "mu_eps:"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "sink"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "uniform_rowx"],
        TORUS + ["--notion", "measure-lyapunov", "--measure", "lopsided_row"],
        SINK + ["--notion", "lyapunov", "--set", "zzz"],
        SINK + ["--notion", "lyapunov", "--set", "row0"],
        TORUS + ["--notion", "lyapunov", "--set", "rowx"],
        TORUS + ["--notion", "lyapunov", "--set", "row"],
        TORUS + ["--notion", "lyapunov", "--set", "x9y9"],
        IDENTITY + ["--notion", "lyapunov", "--set", "z"],
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "{dir}/missing.json"],
        IDENTITY + ["--notion", "measure-lyapunov", "--measure", "sink"],
        # Exit 2: a missing --set or --measure.
        SINK + ["--notion", "measure-lyapunov"],
        TORUS + ["--notion", "lyapunov"],
        SINK + ["--notion", "asymptotic"],
        SINK + ["--notion", "attractor"],
        IDENTITY + ["--notion", "exponential"],
        # Exit 2: a set or measure that is not invariant.
        SINK + ["--notion", "lyapunov", "--set", "b1"],
        TORUS + ["--notion", "attractor", "--set", "x0y1"],
        DRAIN + ["--notion", "exponential", "--set", "b"],
        DRAIN + ["--notion", "measure-lyapunov", "--measure", "{dir}/drain_moving.json"],
        # Exit 2: bad scenario parameters and bad system files.
        ["stability", "--scenario", "torus", "--grid-n", "7", "--notion", "lyapunov",
         "--set", "row0"],
        ["stability", "--scenario", "torus", "--grid-n", "2", "--notion", "lyapunov",
         "--set", "row0"],
        ["stability", "--scenario", "sink_source", "--n-basin", "0", "--notion",
         "lyapunov", "--set", "sink"],
        ["stability", "--notion", "lyapunov", "--set", "row0"],
        ["stability", "--system", "{dir}/garbled.json", "--notion", "lyapunov", "--set", "x"],
        ["stability", "--system", "{dir}/bad_map.json", "--notion", "lyapunov", "--set", "x"],
    ]
    return cases


def record(src: Path) -> dict:
    sys.path.insert(0, str(src / "src"))
    from bottleneck_ot import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in FILES.items():
            text = obj if isinstance(obj, str) else json.dumps(obj)
            (Path(tmp) / name).write_text(text)
        cases = []
        for argv in _cases():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
            stderr = err.getvalue()
            cases.append({
                "argv": argv,
                "exit_code": code,
                "stdout": out.getvalue(),
                "stderr": None if tmp in stderr else stderr,
            })
    return {"files": FILES, "cases": cases}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="source tree whose src/bottleneck_ot is recorded")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).with_name("stability_cli_outputs.json"))
    args = parser.parse_args()
    args.out.write_text(json.dumps(record(args.src.resolve()), indent=1) + "\n")


if __name__ == "__main__":
    main()
