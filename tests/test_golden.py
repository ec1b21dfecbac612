"""Behaviour lock: outputs compared byte for byte with recorded ones.

``golden/plans.json`` holds the experiment plans: the criterion-9 plan, an
"inf" (analytic-moment) plan with a finite sample count on a generated
multi-tree grid, and a one-trial DistFlow plan.  ``golden/<name>.csv`` is
the error CSV each plan produced.  ``golden/learn_trace_bus_13_3.csv`` is
the per-pair decision trace of ``gridtop learn`` on simulated bus_13_3
samples, which locks the lhs, rhs and deviation of every tested pair.  A
change that moves any digit, or flips any learner decision, fails here.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gridtop.harness import plan_from_dict, run_experiment, write_error_csv
from gridtop.harness.cli import main

GOLDEN = Path(__file__).with_name("golden")
PLANS = json.loads((GOLDEN / "plans.json").read_text())


@pytest.mark.parametrize("name", sorted(PLANS))
def test_experiment_csv_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_error_csv(out, run_experiment(plan_from_dict(PLANS[name])))
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_learn_trace_matches_golden(tmp_path):
    runner = CliRunner()
    samples, trace = tmp_path / "samples.csv", tmp_path / "trace.csv"
    sim = runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "2000", "--seed", "5",
                               "-o", str(samples)])
    assert sim.exit_code == 0, sim.output
    learn = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(samples),
                                 "--tau", "0.05", "--trace", str(trace)])
    assert learn.exit_code == 0, learn.output
    assert trace.read_bytes() == (GOLDEN / "learn_trace_bus_13_3.csv").read_bytes()
