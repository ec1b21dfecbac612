"""Smoke test of the bench scripts that write the ``BENCH_*.json`` files:
the scaling scripts each run on two small sizes, once, and must write a
document with its cases, with a traced memory peak per call and size (for
the infinite-sample script, a ``parse_grid`` row among the calls); the
trial memory script runs its DistFlow case for one round and must write
that case's medians.  No timing is asserted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


@pytest.mark.parametrize("script, sizes", [("path_sum_scaling.py", ["20", "40"]),
                                           ("sample_io_scaling.py", ["10", "20"])])
def test_bench_script_runs_on_small_sizes(tmp_path, script, sizes):
    out = tmp_path / "bench.json"
    _run(script, ["--sizes", *sizes, "--repeats", "1", "--out", str(out)], tmp_path)
    cases = json.loads(out.read_text())["cases"]
    for case in cases.values():
        assert case["peak_mib"].keys() == case["seconds"].keys()
        if script == "path_sum_scaling.py":
            assert "parse_grid" in case["seconds"]
        assert all(len(peaks) == len(sizes) and min(peaks) > 0 for peaks in case["peak_mib"].values())


def test_trial_memory_script_runs_one_round(tmp_path):
    out = tmp_path / "bench.json"
    _run("trial_memory.py", ["--side", f"after={ROOT / 'src'}", "--rounds", "1", "--cases", "distflow_mc",
                             "--out", str(out)], tmp_path)
    medians = json.loads(out.read_text())["medians"]
    assert list(medians) == ["distflow_mc"] and list(medians["distflow_mc"]) == ["after"]
    assert all(value > 0 for value in medians["distflow_mc"]["after"].values())
