"""Monte-Carlo experiment driver: error versus sample count and tolerance.

A plan fixes a grid (bundled fixture, file, or generator spec), an
operational forest, an injection model, sweeps over sample counts and
tolerances, and a trial count per grid point.  Each trial draws fresh
injection samples, solves a power flow per sample, reconstructs the forest
from the resulting voltage deviations, and scores the relative error
against the true forest.  Every random stream is derived from the master
seed and the (point, trial) indices, so identical plans produce
byte-identical CSV output regardless of scheduling.

The special sample count "inf" runs the infinite-sample limit: the learner
is fed the exact analytic moment set instead of empirical samples.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..errors import DomainError, GridTopError, ParseError
from ..grid import ForestConfig, GridGraph, _is_index, _is_number
from ..learner import LearnerConfig, reconstruct
from ..moments import InjectionModel, analytic_moment_set, model_from_dict, sample_injections
# distflow_solve is unused here but kept: perfbench/spans.py wraps it on this module by name.
from ..powerflow import VoltageSamples, distflow_solve, distflow_solve_many, lcpf_solve_many  # noqa: F401
from .generate import add_open_lines, generate_random_grid, random_spanning_forest
from .gridfile import _json_document, _read_text, parse_grid
from ..fixtures import FIXTURE_NAMES, load_fixture

__all__ = [
    "ExperimentPlan",
    "ExperimentResult",
    "plan_from_dict",
    "plan_from_json",
    "resolve_plan_grid",
    "seed_or_env",
    "simulate_voltage",
    "run_experiment",
    "write_error_csv",
    "write_trial_csv",
    "write_gnuplot_script",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("grid", "variant", "m", "tau", "trials", "mean_error", "std_error")
TRIAL_COLUMNS = ("grid", "variant", "m", "tau", "trial", "error", "note")


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one experiment run."""

    grid: str | dict
    sample_counts: tuple[float, ...]
    taus: tuple[float, ...]
    trials: int
    seed: int | None = None
    model: dict = field(default_factory=dict)
    forest: str | dict = "declared"
    variant: str = "lc"
    engine: str = "lc"
    augment_open_lines: int = 0
    name: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if not self.sample_counts:
            raise DomainError("sample_counts must not be empty")
        for m in self.sample_counts:
            if not (math.isinf(m) or (float(m).is_integer() and m >= 1)):
                raise DomainError(f"sample counts must be positive integers or inf, got {m}")
        if not self.taus:
            raise DomainError("taus must not be empty")
        if self.engine not in ("lc", "distflow"):
            raise DomainError(f"engine must be 'lc' or 'distflow', got {self.engine!r}")
        if self.augment_open_lines < 0:
            raise DomainError("augment_open_lines must be non-negative")


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[dict, ...]
    trial_rows: tuple[dict, ...]
    failures: int


def _integer(value) -> int:
    """A JSON integer; a bool or a float is refused, not converted."""
    if not _is_index(value):
        raise TypeError(value)
    return int(value)


def _seed(value) -> int:
    seed = _integer(value)
    if seed < 0:
        raise ValueError(value)
    return seed


def _number(value) -> float:
    if not _is_number(value):
        raise TypeError(value)
    return float(value)


def _sample_count(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "analytic"):
            return math.inf
        raise ValueError(value)
    return math.inf if value == math.inf else float(_integer(value))


def _parsed(key: str, noun: str, convert, value):
    """``convert(value)``; a value it cannot take raises ParseError naming
    the plan key."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParseError(f"bad {noun} {value!r}", key) from None


def _parsed_list(key: str, noun: str, convert, values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"expected a list of {noun}s, got {values!r}", key)
    return tuple(_parsed(key, noun, convert, v) for v in values)


_PLAN_KEYS = tuple(f.name for f in fields(ExperimentPlan))
_GENERATOR_COUNTS = ("n_loads", "k_subs", "n_extra_lines", "n_tie_lines")


def plan_from_dict(doc: dict) -> ExperimentPlan:
    if not isinstance(doc, dict):
        raise ParseError("a plan must be a JSON object", "plan")
    for key in doc:
        if key not in _PLAN_KEYS:
            raise ParseError(f"unknown key; a plan takes {', '.join(_PLAN_KEYS)}", str(key))
    try:
        return ExperimentPlan(
            grid=doc["grid"],
            sample_counts=_parsed_list("sample_counts", "sample count", _sample_count, doc["sample_counts"]),
            taus=_parsed_list("taus", "tau", _number, doc["taus"]),
            trials=_parsed("trials", "trial count", _integer, doc["trials"]),
            seed=None if doc.get("seed") is None else _parsed("seed", "seed", _seed, doc["seed"]),
            model=doc.get("model", {}),
            forest=doc.get("forest", "declared"),
            variant=doc.get("variant", "lc"),
            engine=doc.get("engine", "lc"),
            augment_open_lines=_parsed("augment_open_lines", "line count", _integer,
                                       doc.get("augment_open_lines", 0)),
            name=doc.get("name", ""),
        )
    except KeyError as exc:
        raise ParseError(f"missing required key {exc.args[0]!r}", "plan") from exc


def plan_from_json(path: str | Path) -> ExperimentPlan:
    return plan_from_dict(_json_document(_read_text(path, "plan"), path))


def seed_or_env(seed: int | None) -> int:
    """``seed`` when given, else the GRIDTOP_SEED environment variable, else 0.
    Either must be a non-negative integer."""
    if seed is not None:
        if seed < 0:
            raise DomainError(f"--seed must be a non-negative integer, got {seed}")
        return seed
    text = os.environ.get("GRIDTOP_SEED", "0")
    try:
        env_seed = int(text)
    except ValueError:
        env_seed = -1
    if env_seed < 0:
        raise DomainError(f"GRIDTOP_SEED must be a non-negative integer, got {text!r}")
    return env_seed


def resolve_plan_grid(plan: ExperimentPlan) -> tuple[GridGraph, ForestConfig, str]:
    """Materialize the plan's grid, operational forest, and CSV label."""
    master = seed_or_env(plan.seed)
    spec = plan.grid
    if isinstance(spec, str):
        if spec in FIXTURE_NAMES:
            grid, forest = load_fixture(spec)
            label = spec
        else:
            grid, forest = parse_grid(spec)
            label = grid.name or Path(spec).stem
    elif isinstance(spec, dict) and "path" in spec:
        grid, forest = parse_grid(spec["path"])
        label = grid.name or Path(spec["path"]).stem
    elif isinstance(spec, dict) and "generator" in spec:
        if not isinstance(spec["generator"], dict):
            raise ParseError(f"expected an object, got {spec['generator']!r}", "grid.generator")
        params = dict(spec["generator"])
        for key in _GENERATOR_COUNTS:
            if key in params:
                params[key] = _parsed(f"grid.generator.{key}", "count", _integer, params[key])
        seed = params.get("seed")
        params["seed"] = master if seed is None else _parsed("grid.generator.seed", "seed", _seed, seed)
        try:
            n_loads = params.pop("n_loads")
            k_subs = params.pop("k_subs")
            n_extra = params.pop("n_extra_lines")
        except KeyError as exc:
            raise ParseError(f"generator spec is missing {exc.args[0]!r}", "grid.generator") from exc
        for key, val in params.items():
            if isinstance(val, list):  # JSON has no tuples
                params[key] = tuple(val)
        try:
            grid, forest = generate_random_grid(n_loads, k_subs, n_extra, **params)
        except TypeError as exc:
            raise ParseError(f"bad generator option: {exc}", "grid.generator") from exc
        label = grid.name or f"random_{grid.n_loads}_{grid.n_substations}"
    else:
        raise ParseError("grid must be a fixture name, a path, or a {path}/{generator} object", "grid")

    if isinstance(plan.forest, dict) and "closed_edges" in plan.forest:
        closed = plan.forest["closed_edges"]
        if not isinstance(closed, (list, tuple)):
            raise ParseError(f"expected a list of edge indices, got {closed!r}", "forest.closed_edges")
        forest = ForestConfig.from_closed_edges(grid, closed)
    elif isinstance(plan.forest, dict) and "random_seed" in plan.forest:
        forest = random_spanning_forest(grid, _parsed("forest.random_seed", "seed", _seed,
                                                      plan.forest["random_seed"]))
    elif plan.forest != "declared":
        raise ParseError("forest must be 'declared', {closed_edges: [...]}, or {random_seed: n}", "forest")
    if forest is None:
        raise DomainError("the plan's grid declares no operational forest")

    if plan.augment_open_lines:
        grid, forest = add_open_lines(grid, forest, plan.augment_open_lines,
                                      np.random.SeedSequence((master, 0x417)))
    return grid, forest, plan.name or label


def simulate_voltage(forest: ForestConfig, model: InjectionModel, m: int, seed,
                     engine: str = "lc") -> VoltageSamples:
    """Draw m injection samples and solve one power flow per sample."""
    batch = sample_injections(model, m, seed)
    if engine == "lc":
        return lcpf_solve_many(forest, batch.p, batch.q)
    if engine == "distflow":
        return distflow_solve_many(forest, batch.p, batch.q)
    raise DomainError(f"unknown power-flow engine {engine!r}")


def run_experiment(plan: ExperimentPlan, include_timing: bool = False) -> ExperimentResult:
    """Execute every (m, tau) grid point of the plan.

    Trial failures are recorded and skipped; the aggregate row averages the
    surviving trials.  Rows come back in plan order (sample counts outer,
    taus inner) independent of execution timing.
    """
    master = seed_or_env(plan.seed)
    grid, forest, label = resolve_plan_grid(plan)
    model = model_from_dict(plan.model, forest)

    analytic = None  # the exact moment set, built on the first "inf" trial
    rows = []
    trial_rows = []
    failures = 0
    for pi, m in enumerate(plan.sample_counts):
        for ti, tau in enumerate(plan.taus):
            config = LearnerConfig(tau=tau, variant=plan.variant)
            point_index = pi * len(plan.taus) + ti
            errors = []
            started = time.perf_counter()
            for trial in range(plan.trials):
                note = ""
                err = None
                try:
                    if math.isinf(m):
                        if plan.engine != "lc":
                            raise DomainError("the infinite-sample limit is defined for the lc engine only")
                        if analytic is None:
                            analytic = analytic_moment_set(forest, model, variant=plan.variant)
                        data = analytic
                    else:
                        seed = np.random.SeedSequence((master, point_index, trial))
                        data = simulate_voltage(forest, model, int(m), seed, plan.engine)
                    result = reconstruct(data, model, grid, config, truth=forest)
                    err = result.relative_error
                    errors.append(err)
                except GridTopError as exc:
                    failures += 1
                    note = str(exc)
                trial_rows.append({
                    "grid": label, "variant": plan.variant, "m": m, "tau": tau,
                    "trial": trial, "error": err, "note": note,
                })
            elapsed = time.perf_counter() - started
            row = {
                "grid": label, "variant": plan.variant, "m": m, "tau": tau,
                "trials": plan.trials,
                "mean_error": float(np.mean(errors)) if errors else math.nan,
                "std_error": float(np.std(errors)) if errors else math.nan,
            }
            if include_timing:
                row["seconds"] = elapsed
            rows.append(row)
    return ExperimentResult(rows=tuple(rows), trial_rows=tuple(trial_rows), failures=failures)


def _format_m(m: float) -> str:
    return "inf" if math.isinf(m) else str(int(m))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: str | Path, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_m(row.get(col)) if col == "m" else _format_cell(row.get(col))
                             for col in columns])


def write_error_csv(path: str | Path, result: ExperimentResult) -> None:
    """One row per grid point; a ``seconds`` column follows when the rows
    were timed (``run_experiment(..., include_timing=True)``)."""
    columns = CSV_COLUMNS + (("seconds",) if any("seconds" in row for row in result.rows) else ())
    _write_rows(path, columns, result.rows)


def write_trial_csv(path: str | Path, result: ExperimentResult) -> None:
    _write_rows(path, TRIAL_COLUMNS, result.trial_rows)


def write_gnuplot_script(path: str | Path, csv_path: str | Path, result: ExperimentResult) -> None:
    """Companion script plotting mean error against sample count, one curve
    per tolerance value."""
    taus = sorted({row["tau"] for row in result.rows})
    plots = ", \\\n     ".join(
        f"'{csv_path}' using 3:($4=={tau!r} ? $6 : 1/0) with linespoints title 'tau={tau!r}'"
        for tau in taus
    )
    script = "\n".join([
        "set datafile separator ','",
        "set key top right",
        "set logscale x",
        "set xlabel 'samples m'",
        "set ylabel 'mean relative error'",
        f"plot {plots}",
        "pause -1",
    ])
    Path(path).write_text(script + "\n")
