"""Smoke test of the benchmark: every workload in both trace modes, two
small units each, no timing assertion.  Run with

    python -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_and_checks_its_outputs():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
