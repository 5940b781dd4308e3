"""Golden-output guard for `decompose`.

`data/decompose_cli_outputs.json` is written by `data/record_cli_outputs.py
--matrix decompose` from the tree in which every step of the construction
rebuilt its subset-slack table from scratch.  It holds seeded feasible
instances at m = 1-12, zero targets, infeasible instances of both kinds, a
negative target, and the two caps (m = 13 passes the check and exits 2 from
`decompose`, m = 15 exits 2 from the check), each in `table` and `json`
format.  Every case is replayed in-process: exit code and stdout must match,
and stderr too where it was recorded, so components, traces with their
depths, `max_depth` and verdicts are all pinned.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bottleneck_ot import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "decompose_cli_outputs.json").read_text())


def test_matrix_covers_every_case_size_and_format():
    cases = GOLDEN["cases"]
    labels = set()
    for case in cases:
        if case["argv"][-1] == "json" and case["exit_code"] == 0:
            labels |= {step["case"] for step in json.loads(case["stdout"])["trace"]}
    assert labels == {"Base", "Case1", "Case2", "Case3.1", "Case3.3"}
    sizes = {len(GOLDEN["files"][case["argv"][1].split("/")[-1]]["sets"])
             for case in cases if case["exit_code"] == 0}
    assert sizes == set(range(1, 13))
    assert {case["argv"][-1] for case in cases} == {"table", "json"}
    assert {case["exit_code"] for case in cases} == {0, 2, 4}
    stdout = "".join(case["stdout"] for case in cases)
    assert "Infeasible(subset-bound" in stdout and "Infeasible(total-mass" in stdout
    stderr = {case["stderr"] for case in cases}
    assert {"error: decompose capped at m <= 12\n",
            "error: feasibility check capped at m <= 14\n"} <= stderr


def test_decompose_stdout_exit_code_and_stderr_are_unchanged(tmp_path):
    for name, obj in GOLDEN["files"].items():
        (tmp_path / name).write_text(json.dumps(obj))
    mismatches = []
    for case in GOLDEN["cases"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]])
        stderr = None if case["stderr"] is None else err.getvalue()
        if (code, out.getvalue(), stderr) != (case["exit_code"], case["stdout"], case["stderr"]):
            mismatches.append(" ".join(case["argv"]))
    assert mismatches == []
