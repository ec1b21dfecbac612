"""Behaviour lock: experiment CSVs compared byte for byte with outputs
recorded before the analytic path was reorganised.

``golden/plans.json`` holds the plans: the criterion-9 plan, an "inf"
(analytic-moment) plan with a finite sample count on a generated
multi-tree grid, and a one-trial DistFlow plan.  ``golden/<name>.csv`` is
the error CSV each plan produced.  A change that moves any digit, or flips
any learner decision, fails here.
"""

import json
from pathlib import Path

import pytest

from gridtop.harness import plan_from_dict, run_experiment, write_error_csv

GOLDEN = Path(__file__).with_name("golden")
PLANS = json.loads((GOLDEN / "plans.json").read_text())


@pytest.mark.parametrize("name", sorted(PLANS))
def test_experiment_csv_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_error_csv(out, run_experiment(plan_from_dict(PLANS[name])))
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
