"""The benchmark's traced mode replaces named attributes of program modules
(``perfbench/spans.py``, ``WRAP_POINTS``) and stops with MissingWrapPoint
when one is gone.  Resolving them here catches a rename or a dropped import
in the regular suite, not only in a benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    resolved = spans.resolve_wrap_points()
    assert len(resolved) == len(spans.WRAP_POINTS)
