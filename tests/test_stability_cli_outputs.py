"""Golden-output guard for the `stability` front end: scenarios, names, sets,
`--system` files and the exit-2 paths.

`data/stability_cli_outputs.json` is written by `data/record_cli_outputs.py`
from the tree before the scenario protocol replaced the per-scenario branches
of `cli.cmd_stability`.  Every case is replayed in-process: exit code and
stdout must match, and stderr too where it was recorded (it is not where it
named a temporary file).  A change that alters any of them has to regenerate
the file on purpose.  It was last regenerated when the exponential note was
rewritten (the per-step lifted recomputation of the Hausdorff distance was
dropped), and then when a scenario name whose number fails to parse came to
be reported as ``malformed scenario name '<name>'`` in place of Python's
``int()``/``Fraction`` message: six stderr strings, no stdout or exit code.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bottleneck_ot import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "stability_cli_outputs.json").read_text())


def test_matrix_covers_every_notion_scenario_and_format():
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    notions = {argv[argv.index("--notion") + 1] for argv in argvs if "--notion" in argv}
    assert notions == {"lyapunov", "measure-lyapunov", "asymptotic", "attractor", "exponential"}
    assert {argv[2] for argv in argvs if argv[1] == "--scenario"} == {"sink_source", "torus"}
    assert any("--system" in argv for argv in argvs)
    assert any(argv[-2:] == ["--format", "json"] for argv in argvs)
    assert {case["exit_code"] for case in GOLDEN["cases"]} == {0, 2, 3, 7}


def test_stability_stdout_exit_code_and_stderr_are_unchanged(tmp_path):
    for name, obj in GOLDEN["files"].items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    mismatches = []
    for case in GOLDEN["cases"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]])
        stderr = None if case["stderr"] is None else err.getvalue()
        if (code, out.getvalue(), stderr) != (case["exit_code"], case["stdout"], case["stderr"]):
            mismatches.append(" ".join(case["argv"]))
    assert mismatches == []
