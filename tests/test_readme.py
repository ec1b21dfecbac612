"""The README's examples run and parse with the package's own parsers."""

import json
import re
from pathlib import Path

from gridtop.harness import parse_grid, plan_from_dict
from gridtop.moments import model_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


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
