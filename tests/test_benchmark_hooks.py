"""The benchmark's span recorder (perfbench/spans.py) wraps package functions
by the name the calling module looks up.  A name that is renamed or deleted is
skipped there and its per-layer metric silently disappears, so every wrapped
name must exist."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_name_the_span_recorder_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    try:
        recorder.install()
        assert recorder.missing == []
    finally:
        recorder.uninstall()
