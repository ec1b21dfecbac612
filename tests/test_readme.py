"""The README's examples run and parse with the package's own parsers, and
the study plans it names exist and run."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from gridtop.harness import parse_grid, plan_from_dict, plan_from_json, run_experiment
from gridtop.moments import model_from_dict

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_readme_quick_start_runs(capsys):
    (quick_start,) = _blocks("python")
    exec(compile(quick_start, str(README), "exec"), {})
    edges, error = capsys.readouterr().out.rsplit("] ", 1)
    assert edges.startswith("[(") and 0.0 <= float(error) <= 1.0


def test_readme_json_examples_parse():
    grid_doc, model_doc, plan_doc = (json.loads(block) for block in _blocks("json"))
    grid, forest = parse_grid(grid_doc)
    assert forest is not None
    model = model_from_dict(model_doc, forest)
    assert model.nodes == grid.load_ids
    plan = plan_from_dict(plan_doc)
    assert plan.grid == plan_doc["grid"] and plan.trials == plan_doc["trials"]


def test_readme_names_only_scripts_that_exist():
    named = set(re.findall(r"scripts/[\w./-]*\w", README.read_text()))
    assert named
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.json")), ids=lambda path: path.name)
def test_study_plan_runs(path):
    plan = dataclasses.replace(plan_from_json(path), trials=1, sample_counts=(50.0,))
    assert run_experiment(plan).failures == 0
