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
from ..grid import ForestConfig, GridGraph, _entry, _is_finite, _is_index, _is_number, _known_keys, _list_of
from ..learner import LearnerConfig, reconstruct
from ..moments import InjectionBatch, InjectionModel, _Sampler, analytic_moment_set, model_from_dict, sample_injections
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

# Each trial keeps a row until the run ends, so the count is bounded.
MAX_TRIALS = 1_000_000
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
        # A plan built in Python is held to the types plan_from_dict reads.
        if not _is_index(self.trials):
            raise DomainError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise DomainError(f"trials must be at most {MAX_TRIALS:,}, got {self.trials}")
        if not _is_seed_or_none(self.seed):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.sample_counts:
            raise DomainError("sample_counts must not be empty")
        for m in self.sample_counts:
            if not (m == math.inf or (_is_finite(m) and float(m).is_integer() and m >= 1)):
                raise DomainError(f"sample counts must be positive integers or inf, got {m}")
        if not self.taus:
            raise DomainError("taus must not be empty")
        for tau in self.taus:  # the learner's own checks, before any trial runs
            LearnerConfig(tau=tau, variant=self.variant)
        if self.engine not in ("lc", "distflow"):
            raise DomainError(f"engine must be 'lc' or 'distflow', got {self.engine!r}")
        if self.engine != "lc" and any(map(math.isinf, self.sample_counts)):
            raise DomainError("the infinite-sample limit is defined for the lc engine only")
        if not _is_index(self.augment_open_lines):
            raise DomainError(f"augment_open_lines must be an integer, got {self.augment_open_lines!r}")
        if self.augment_open_lines < 0:
            raise DomainError("augment_open_lines must be non-negative")


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[dict, ...]
    trial_rows: tuple[dict, ...]
    failures: int


def _is_seed(value) -> bool:
    return _is_index(value) and value >= 0


def _is_seed_or_none(value) -> bool:
    return value is None or _is_seed(value)


def _is_sample_count(value) -> bool:
    """An integer that a float holds, math.inf, or a word for the
    infinite-sample limit."""
    if isinstance(value, str):
        return value.lower() in ("inf", "infinity", "analytic")
    return value == math.inf or (_is_index(value) and _is_finite(value))


_PLAN_KEYS = tuple(f.name for f in fields(ExperimentPlan))
_FOREST_KEYS = ("closed_edges", "random_seed")
_GENERATOR_KEYS = ("n_loads", "k_subs", "n_extra_lines", "n_tie_lines", "seed", "r_range", "x_range", "name")


def plan_from_dict(doc: dict) -> ExperimentPlan:
    if not isinstance(doc, dict):
        raise ParseError("a plan must be a JSON object", "plan")
    _known_keys(doc, _PLAN_KEYS, "plan", "a plan")
    return ExperimentPlan(
        grid=_entry(doc, "grid", "plan", object, "a grid"),
        sample_counts=tuple(math.inf if isinstance(m, str) else float(m)
                            for m in _entry(doc, "sample_counts", "plan", _list_of(_is_sample_count),
                                            'a list of integers or "inf"')),
        taus=tuple(_entry(doc, "taus", "plan", _list_of(_is_number), "a list of numbers")),
        trials=_entry(doc, "trials", "plan", _is_index, "an integer"),
        seed=_entry(doc, "seed", "plan", _is_seed_or_none, "a non-negative integer", None),
        model=doc.get("model", {}),
        forest=doc.get("forest", "declared"),
        variant=doc.get("variant", "lc"),
        engine=doc.get("engine", "lc"),
        augment_open_lines=_entry(doc, "augment_open_lines", "plan", _is_index, "an integer", 0),
        name=_entry(doc, "name", "plan", str, "a string", ""),
    )


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
    elif isinstance(spec, dict) and "generator" in spec:
        _known_keys(spec, ("generator",), "grid", "a grid object")
        where = "grid.generator"
        gen = _entry(spec, "generator", "grid", dict, "an object")
        _known_keys(gen, _GENERATOR_KEYS, where, "a generator")
        counts = [_entry(gen, key, where, _is_index, "an integer")
                  for key in ("n_loads", "k_subs", "n_extra_lines")]
        seed = _entry(gen, "seed", where, _is_seed_or_none, "a non-negative integer", None)
        ranges = {key: gen[key] for key in ("r_range", "x_range") if key in gen}
        grid, forest = generate_random_grid(
            *counts, n_tie_lines=_entry(gen, "n_tie_lines", where, _is_index, "an integer", 0),
            seed=master if seed is None else seed, name=_entry(gen, "name", where, str, "a string", ""),
            **ranges)
        label = grid.name or f"random_{grid.n_loads}_{grid.n_substations}"
    else:
        raise ParseError("grid must be a fixture name, a path, or a {generator} object", "grid")

    if isinstance(plan.forest, dict):
        _known_keys(plan.forest, _FOREST_KEYS, "forest", "a forest object")
        if len(plan.forest) != 1:
            raise ParseError("a forest object takes exactly one of closed_edges and random_seed", "forest")
        if "closed_edges" in plan.forest:
            closed = _entry(plan.forest, "closed_edges", "forest", _list_of(), "a list of edge indices")
            forest = ForestConfig.from_closed_edges(grid, closed)
        else:
            forest = random_spanning_forest(
                grid, _entry(plan.forest, "random_seed", "forest", _is_seed, "a non-negative integer"))
    elif plan.forest != "declared":
        raise ParseError("forest must be 'declared', {closed_edges: [...]}, or {random_seed: n}", "forest")
    if forest is None:
        raise DomainError("the plan's grid declares no operational forest")

    if plan.augment_open_lines:
        grid, forest = add_open_lines(grid, forest, plan.augment_open_lines,
                                      np.random.SeedSequence((master, 0x417)))
    return grid, forest, plan.name or label


def _solve(forest: ForestConfig, batch: InjectionBatch, engine: str) -> VoltageSamples:
    """One power flow per sample of ``batch``, into new arrays."""
    if engine == "lc":
        return lcpf_solve_many(forest, batch.p, batch.q)
    if engine == "distflow":
        return distflow_solve_many(forest, batch.p, batch.q)
    raise DomainError(f"unknown power-flow engine {engine!r}")


def simulate_voltage(forest: ForestConfig, model: InjectionModel, m: int, seed,
                     engine: str = "lc") -> VoltageSamples:
    """Draw m injection samples and solve one power flow per sample.  The
    draws are made in the forest's load order, whatever the model's order;
    a model over other nodes raises DomainError before any draw."""
    return _solve(forest, sample_injections(model.aligned_to(forest.grid.load_ids), m, seed), engine)


def run_experiment(plan: ExperimentPlan, include_timing: bool = False) -> ExperimentResult:
    """Execute every (m, tau) grid point of the plan.

    Trial failures are recorded and skipped; the aggregate row averages the
    surviving trials.  Rows come back in plan order (sample counts outer,
    taus inner) independent of execution timing.
    """
    master = seed_or_env(plan.seed)
    grid, forest, label = resolve_plan_grid(plan)
    model = model_from_dict(plan.model, forest).aligned_to(forest.grid.load_ids)  # the solvers' order

    analytic = None  # the exact moment set, built on the first "inf" trial
    # One factor of the model's covariance and one pair of sample buffers for
    # the whole run, built before any trial, so that a sample count the
    # buffers cannot hold ends the run and fails no trial.  A trial's draws
    # are solved into new arrays, so no buffer outlives the trial.
    finite = [int(n) for n in plan.sample_counts if not math.isinf(n)]
    sampler = _Sampler(model, max(finite)) if finite else None
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
                        if analytic is None:
                            analytic = analytic_moment_set(forest, model, variant=plan.variant)
                        data = analytic
                    else:
                        seed = np.random.SeedSequence((master, point_index, trial))
                        data = _solve(forest, sampler.draw(int(m), seed), plan.engine)
                    result = reconstruct(data, model, grid, config, truth=forest)
                    err = result.relative_error
                    errors.append(err)
                except GridTopError as exc:
                    failures += 1
                    note = str(exc)
                data = None  # the trial's samples go before the next draw
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


def _write_rows(path: str | Path, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_m(row["m"]) if col == "m" else row.get(col) for col in columns]
                         for row in rows)


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
