"""Golden-output guard for `stability --scenario torus`.

`data/torus_grid16_outputs.json` holds the exit code and stdout of each
argv below, recorded from the implementation that computed every distance
pairwise and rebuilt every measure weight (before the columnar rows and the
measure fast path).  The flag sets are those of the benchmark's `torus`
workload, one row each, at grid-n 16.  A change that alters any of these
outputs has to replace the file on purpose.  The exponential note was
rewritten once, when the per-step lifted recomputation of the Hausdorff
distance was dropped; that string is the only edit to the recording.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from bottleneck_ot import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "torus_grid16_outputs.json").read_text())


def test_golden_file_covers_every_notion():
    notions = {case["argv"][case["argv"].index("--notion") + 1] for case in GOLDEN}
    assert notions == {"lyapunov", "asymptotic", "exponential", "attractor", "measure-lyapunov"}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][5:-2]))
def test_torus_grid16_stdout_and_exit_code_are_unchanged(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    assert code == case["exit_code"]
    assert out.getvalue() == case["stdout"]
