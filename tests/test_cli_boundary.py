"""The command line's boundary, by property.

Every command, given generated and mutated grid, model, plan and sample
files and options, ends in one of three ways:

- exit 0, with nothing on stderr, and whatever JSON it prints is strict
  JSON (no ``NaN`` or ``Infinity``); a text-mode ``learn`` whose forest
  leaves loads parentless writes one warning line on stderr;
- exit 1 with one ``error:`` line on stderr; ``validate`` instead reports
  one ``invalid`` finding, and ``experiment`` its count of failed trials;
- exit 2, a usage error.

Counts that set the size of the work (loads, samples) are drawn small or
far beyond what any machine can hold, never in between, so each example
stays small: no grid has more than 50 loads and no run more than 200
samples.  A plan's trial count is drawn small, at most 40, or above the
plan's bound of 10**6, which the plan refuses before any trial runs.
"""

from __future__ import annotations

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, given, note, settings
from hypothesis import strategies as st

from gridtop.harness import generate_random_grid
from gridtop.harness.cli import main
from gridtop.harness.experiment import simulate_voltage
from gridtop.harness.gridfile import grid_to_dict
from gridtop.moments import default_model, model_to_dict

GRID, FOREST = generate_random_grid(8, 2, 2, n_tie_lines=1, seed=3)
GRID_DOC = grid_to_dict(GRID, FOREST)
EXPLICIT_MODEL = model_to_dict(default_model(FOREST))
DEFAULT_MODEL = {"kind": "default", "mu_p": -0.01, "sigma_ratio": 0.5}
PLAN = {"grid": "bus_13_3", "sample_counts": [20, "inf"], "taus": [0.05, 0.1], "trials": 2, "seed": 1,
        "model": {"kind": "default", "mu_p": -0.01}, "engine": "lc", "variant": "lc"}
GENERATED_PLAN = dict(PLAN, grid={"generator": {"n_loads": 8, "k_subs": 1, "n_extra_lines": 2, "seed": 4}})
SAMPLES = simulate_voltage(FOREST, default_model(FOREST), 30, 5)

HUGE_INTS = (2**63, 2**64 + 1, -(2**63) - 1, 10**400)
# Floats from 1e-320 to 1e308 either side of zero, and the edge values.
FLOATS = st.one_of(
    st.floats(1e-320, 1e308, allow_subnormal=True).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]))
# json.dumps writes non-finite floats as the literals NaN, Infinity and -Infinity.
ODD_VALUES = st.one_of(FLOATS, st.integers(-3, 40), st.sampled_from(HUGE_INTS),
                       st.sampled_from(["x", "", "inf", None, True, False, [], {}, [1.0], {"a": 1}]))
ODD_TOKENS = st.one_of(FLOATS.map(repr), st.integers(-3, 40).map(str), st.sampled_from(HUGE_INTS).map(str),
                       st.sampled_from(["NaN", "Infinity", "-Infinity", "nan", "inf", "-0", "1e400", "0x10",
                                        "", "x", " 1", "1_0"]))
OPTION_FLOATS = st.one_of(st.sampled_from(["0.1", "0.05", "1", "x"]), FLOATS.map(repr))
OPTION_COUNTS = st.one_of(st.integers(-2, 50), st.sampled_from(HUGE_INTS)).map(str)
SEEDS = st.one_of(st.just([]),
                  st.one_of(st.integers(-2, 9), st.sampled_from(HUGE_INTS)).map(lambda s: ["--seed", str(s)]))


def _spots(value):
    """Every (container, key) pair inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _spots(child)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value replaced, one key dropped or one list reordered."""
    root = {"doc": copy.deepcopy(doc)}
    container, key = draw(st.sampled_from(list(_spots(root))))
    action = draw(st.sampled_from(["replace", "drop", "reorder"]))
    if action == "drop" and container is not root:
        del container[key]
    elif action == "reorder" and isinstance(container[key], list):
        container[key] = draw(st.permutations(container[key]))
    else:
        container[key] = draw(ODD_VALUES)
    return root["doc"]


@st.composite
def sample_texts(draw):
    """The base sample file, whole, scaled, with one cell replaced or with
    its header reordered or mangled."""
    header = [str(nid) for nid in SAMPLES.nodes]
    rows = SAMPLES.eps[:draw(st.integers(1, len(SAMPLES.eps)))]
    action = draw(st.sampled_from(["keep", "scale", "cell", "header", "reorder"]))
    if action == "scale":
        with np.errstate(over="ignore", under="ignore"):
            rows = rows * draw(FLOATS.filter(math.isfinite))
    cells = [[repr(v) for v in row] for row in rows.tolist()]
    if action == "cell":
        cells[draw(st.integers(0, len(cells) - 1))][draw(st.integers(0, len(header) - 1))] = draw(ODD_TOKENS)
    elif action == "header":
        header[draw(st.integers(0, len(header) - 1))] = draw(ODD_TOKENS)
    elif action == "reorder":
        header = draw(st.permutations(header))
    return "\n".join(",".join(line) for line in [header] + cells) + "\n"


TRIAL_COUNTS = st.one_of(st.integers(-3, 40), st.sampled_from([10**6 + 1, 2**63]))


def _few_trials(plan) -> bool:
    """False for a plan that would run more than 40 trials."""
    trials = plan.get("trials") if isinstance(plan, dict) else None
    return not (isinstance(trials, int) and 40 < trials <= 10**6)


def _write(folder: Path, name: str, content) -> str:
    text = content if isinstance(content, str) else json.dumps(content)
    note(f"{name}: {text[:2000]}")
    path = folder / name
    path.write_text(text)
    return str(path)


@st.composite
def invocations(draw, command: str, folder: Path):
    """Arguments for ``command``, with the files it reads written to ``folder``."""
    grid_files = st.one_of(st.just(GRID_DOC), mutated(GRID_DOC)).map(lambda doc: _write(folder, "grid.json", doc))
    grid = lambda: draw(st.one_of(grid_files, st.just("bus_13_3")))
    model_files = st.one_of(st.just(DEFAULT_MODEL), mutated(DEFAULT_MODEL), mutated(EXPLICIT_MODEL))
    model = lambda: draw(st.one_of(st.just([]),
                                   model_files.map(lambda doc: ["--model", _write(folder, "model.json", doc)])))
    samples = lambda: _write(folder, "samples.csv", draw(sample_texts()))
    out = str(folder / "out")
    if command == "gen-grid":
        options = [f"--{name}={draw(OPTION_COUNTS)}" for name in ("loads", "subs", "ties", "extra")
                   if name == "loads" or draw(st.booleans())]
        options += [f"--{name}={draw(OPTION_FLOATS)}" for name in ("r-min", "r-max", "x-min", "x-max")
                    if draw(st.booleans())]
        return [command, *options, *draw(SEEDS), "-o", out]
    if command == "simulate":
        m = draw(st.one_of(st.integers(-2, 200), st.sampled_from(HUGE_INTS)))
        engine = draw(st.sampled_from(["lc", "distflow"]))
        return [command, "--grid", grid(), "-m", str(m), "--engine", engine, *model(), *draw(SEEDS), "-o", out]
    if command == "moments":
        return [command, "--samples", samples(), *draw(st.sampled_from([[], ["-o", out]]))]
    if command == "learn":
        return [command, "--grid", grid(), "--samples", samples(), f"--tau={draw(OPTION_FLOATS)}",
                "--variant", draw(st.sampled_from(["lc", "dc"])), *model(),
                *draw(st.sampled_from([[], ["--json"], ["--trace", out]]))]
    if command == "experiment":
        plans = st.one_of(mutated(PLAN), mutated(GENERATED_PLAN), mutated(dict(GENERATED_PLAN, variant="dc")),
                          mutated(dict(PLAN, engine="distflow", sample_counts=[20])),
                          TRIAL_COUNTS.flatmap(lambda trials: mutated(dict(PLAN, trials=trials))))
        plan = draw(plans.filter(_few_trials))
        return [command, "--plan", _write(folder, "plan.json", plan), "-o", out]
    return [command, "--grid", grid(), *model(), *draw(st.sampled_from([[], ["--json"]]))]


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _check_outcome(args, res):
    command = args[0]
    where = f"{args}: exit {res.exit_code}, stdout {res.stdout[-300:]!r}, stderr {res.stderr[-300:]!r}"
    assert res.exit_code in (0, 1, 2), where
    assert res.exit_code == 0 or isinstance(res.exception, SystemExit), f"{where}: {res.exception!r}"
    as_json = "--json" in args or (command == "moments" and "-o" not in args)
    if res.exit_code == 0:
        warned = command == "learn" and not as_json and re.fullmatch(
            r"warning: \d+ of \d+ loads have no learned parent\n", res.stderr)
        assert res.stderr == "" or warned, where
        if as_json:
            _strict_json(res.stdout)
    elif res.exit_code == 1:
        errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
        if command == "validate":
            assert res.stderr == "", where
            findings = _strict_json(res.stdout)["findings"] if as_json else res.stdout.splitlines()
            assert len([line for line in findings if line.startswith("invalid")]) == 1, where
        elif command == "experiment" and not errors:
            assert re.fullmatch(r"wrote \S+: \d+ grid points, [1-9]\d* failed trials\n", res.stdout), where
        else:
            assert len(errors) == 1 and res.stderr == errors[0] + "\n", where
            assert res.stdout == "", where


@pytest.mark.parametrize("command", ["gen-grid", "simulate", "moments", "learn", "experiment", "validate"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_command_ends_in_output_one_error_line_or_a_usage_error(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        args = data.draw(invocations(command, Path(tmp)), label="args")
        res = CliRunner().invoke(main, args)
        event(f"exit {res.exit_code}")
        _check_outcome(args, res)
