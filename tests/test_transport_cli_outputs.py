"""Golden-output guard for `converge` and `dist --p 1 --plan`.

`data/transport_cli_outputs.json` is written by `data/record_cli_outputs.py
--matrix transport` from the tree before the W-infinity search started at
the singleton-Hall bound and the separating-mass checks moved to integers.
It holds seeded sequences of three classes (eventually equal, a vanishing
atom, an approaching atom) at limit supports 3, 5 and 8, and measure pairs at
support 24-64 on all three metric rules.  Every case is replayed in-process:
exit code and stdout must match, so W-infinity values, plans, W1 values and
verdicts are all pinned.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bottleneck_ot import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "transport_cli_outputs.json").read_text())


def test_matrix_covers_every_class_rule_and_format():
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    assert {argv[0] for argv in argvs} == {"converge", "dist"}
    names = " ".join(GOLDEN["files"])
    for part in ("eventually_equal", "vanishing_atom", "approaching", "euclidean_64x64",
                 "torus", "matrix"):
        assert part in names
    assert any(argv[-2:] == ["--format", "json"] for argv in argvs)
    assert {case["exit_code"] for case in GOLDEN["cases"]} == {0, 5, 6}


def test_converge_and_dist_stdout_and_exit_code_are_unchanged(tmp_path):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    mismatches = []
    for case in GOLDEN["cases"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]])
        if (code, out.getvalue()) != (case["exit_code"], case["stdout"]):
            mismatches.append(" ".join(case["argv"]))
    assert mismatches == []
