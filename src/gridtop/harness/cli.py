"""Command-line interface.

Exit codes: 0 on success, 1 on operational failure (including any failed
experiment trial), 2 on usage errors.  The GRIDTOP_SEED environment
variable supplies the master seed wherever no explicit seed is given.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from ..errors import GridTopError
from ..learner import TRACE_FIELDS, LearnerConfig, reconstruct
from ..moments import assumption1_violations, empirical_moments, model_from_dict
from ..powerflow import VARIANTS
from ..fixtures import FIXTURE_NAMES, fixture_path
from .experiment import (
    plan_from_json,
    run_experiment,
    seed_or_env,
    simulate_voltage,
    write_error_csv,
    write_gnuplot_script,
    write_trial_csv,
)
from .generate import generate_random_grid
from .gridfile import _json_document, _read_text, parse_grid, read_samples, write_grid, write_samples


def _load_grid(spec: str):
    if spec in FIXTURE_NAMES:
        return parse_grid(fixture_path(spec))
    return parse_grid(spec)


def _load_model(path: str | None, forest):
    if path is None:
        return model_from_dict({}, forest)
    return model_from_dict(_json_document(_read_text(path, "model file"), path), forest)


def _json_margin(value: float | None):
    """A decision margin for JSON output, which has no infinity: a
    non-finite margin is written as a string ("inf")."""
    return value if value is None or math.isfinite(value) else repr(value)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@contextmanager
def _writing(path):
    """End the command with one error line naming ``path`` when writing it fails."""
    try:
        yield
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


@click.group()
def main():
    """Simulate linearized power flow on radial grids and learn the
    operational forest topology from voltage data."""


@main.command("gen-grid")
@click.option("--loads", type=int, required=True, help="Number of load nodes.")
@click.option("--subs", type=int, default=1, show_default=True, help="Number of substations.")
@click.option("--ties", type=int, default=0, show_default=True, help="Normally-open tie switches.")
@click.option("--extra", type=int, default=0, show_default=True, help="Extra non-operational lines.")
@click.option("--r-min", type=float, default=0.05, show_default=True)
@click.option("--r-max", type=float, default=0.3, show_default=True)
@click.option("--x-min", type=float, default=0.05, show_default=True)
@click.option("--x-max", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=None, help="Defaults to GRIDTOP_SEED or 0.")
@click.option("--name", default="", help="Grid name stored in the file.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
def gen_grid(loads, subs, ties, extra, r_min, r_max, x_min, x_max, seed, name, output):
    """Generate a random grid with its operational forest declared."""
    try:
        grid, forest = generate_random_grid(
            loads, subs, extra, n_tie_lines=ties,
            r_range=(r_min, r_max), x_range=(x_min, x_max),
            seed=seed_or_env(seed), name=name)
        with _writing(output):
            write_grid(output, grid, forest)
    except GridTopError as exc:
        _fail(str(exc))
    click.echo(f"wrote {output}: {grid.n_loads} loads, {grid.n_substations} substations, "
               f"{len(grid.edges)} lines")


@main.command()
@click.option("--grid", "grid_spec", required=True, help="Grid file or bundled fixture name.")
@click.option("-m", "--samples", type=int, required=True, help="Number of voltage snapshots.")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Injection model JSON; defaults to the built-in consumption model.")
@click.option("--engine", type=click.Choice(["lc", "distflow"]), default="lc", show_default=True)
@click.option("--seed", type=int, default=None, help="Defaults to GRIDTOP_SEED or 0.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
def simulate(grid_spec, samples, model_path, engine, seed, output):
    """Sample injections, solve power flows, write a voltage-sample CSV."""
    try:
        grid, forest = _load_grid(grid_spec)
        if forest is None:
            _fail("the grid declares no operational forest (no closed edges)")
        model = _load_model(model_path, forest)
        batch = simulate_voltage(forest, model, samples, seed_or_env(seed), engine)
        write_samples(output, batch)
    except GridTopError as exc:
        _fail(str(exc))
    click.echo(f"wrote {output}: {samples} samples x {len(batch.nodes)} nodes")


@main.command()
@click.option("--samples", "samples_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write JSON here instead of stdout.")
def moments(samples_path, output):
    """Empirical second moments of a voltage-sample file."""
    try:
        batch = read_samples(samples_path)
        mset = empirical_moments(batch)
    except GridTopError as exc:
        _fail(str(exc))
    doc = {
        "nodes": list(mset.nodes),
        "m": mset.m,
        "sigma_eps": mset.sigma_eps.tolist(),
    }
    text = json.dumps(doc, indent=2)
    if output:
        with _writing(output):
            Path(output).write_text(text + "\n")
        click.echo(f"wrote {output}")
    else:
        click.echo(text)


@main.command()
@click.option("--grid", "grid_spec", required=True, help="Grid file or bundled fixture name.")
@click.option("--samples", "samples_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--tau", type=float, default=0.05, show_default=True, help="Relative tolerance.")
@click.option("--variant", type=click.Choice(list(VARIANTS)), default="lc", show_default=True,
              help="Linear model; dc is lc with each line's impedance taken as (1/g, 0).")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the per-pair decision trace CSV here.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def learn(grid_spec, samples_path, tau, variant, model_path, trace_path, as_json):
    """Reconstruct the operational forest from voltage samples."""
    try:
        grid, truth = _load_grid(grid_spec)
        model = _load_model(model_path, truth)
        batch = read_samples(samples_path)
        config = LearnerConfig(tau=tau, variant=variant)
        result = reconstruct(batch, model, grid, config, truth=truth)
    except GridTopError as exc:
        _fail(str(exc))
    if trace_path:
        with _writing(trace_path), open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_FIELDS)
            writer.writerows(result.trace)  # csv writes None as an empty field
    edges = sorted(result.learned_edges)
    if as_json:
        click.echo(json.dumps({
            "learned_edges": [list(e) for e in edges],
            "relative_error": result.relative_error,
            "accept_margin": _json_margin(result.accept_margin),
            "reject_margin": _json_margin(result.reject_margin),
            "parentless_loads": list(result.parentless_loads),
        }))
        return
    click.echo(f"learned {len(edges)} edges:")
    for u, v in edges:
        click.echo(f"  {u} -- {v}")
    if result.relative_error is not None:
        click.echo(f"relative error vs declared forest: {result.relative_error}")


@main.command()
@click.option("--plan", "plan_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default="results.csv", show_default=True)
@click.option("--verbose", is_flag=True, help="Also write per-trial rows to <output>.trials.csv.")
@click.option("--timing", is_flag=True,
              help="Add a wall-clock seconds column (breaks byte-for-byte reproducibility).")
@click.option("--gnuplot", is_flag=True, help="Write a companion gnuplot script next to the CSV.")
def experiment(plan_path, output, verbose, timing, gnuplot):
    """Run a full error-versus-samples/tolerance experiment plan."""
    try:
        plan = plan_from_json(plan_path)
        result = run_experiment(plan, include_timing=timing)
    except GridTopError as exc:
        _fail(str(exc))
    with _writing(output):
        write_error_csv(output, result)
    if verbose:
        with _writing(trials := f"{output}.trials.csv"):
            write_trial_csv(trials, result)
    if gnuplot:
        with _writing(script := f"{output}.gnuplot"):
            write_gnuplot_script(script, output, result)
    click.echo(f"wrote {output}: {len(result.rows)} grid points, {result.failures} failed trials")
    if result.failures:
        sys.exit(1)


@main.command()
@click.option("--grid", "grid_spec", required=True, help="Grid file or bundled fixture name.")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Also check the injection model against the forest.")
@click.option("--json", "as_json", is_flag=True)
def validate(grid_spec, model_path, as_json):
    """Run the structural invariant checks on a grid file (and model)."""
    findings = []
    ok = True
    try:
        grid, forest = _load_grid(grid_spec)
        findings.append(f"grid ok: {grid.n_loads} loads, {grid.n_substations} substations, "
                        f"{len(grid.edges)} lines")
        if forest is None:
            findings.append("no operational forest declared")
        else:
            findings.append(f"forest ok: {forest.n_trees} trees, {len(forest.closed_edges)} closed edges")
    except GridTopError as exc:
        ok = False
        findings.append(f"invalid: {exc}")

    warnings = []
    if ok and model_path is not None and forest is not None:
        try:
            model = _load_model(model_path, forest)
            bad = assumption1_violations(forest, model)
            if bad:
                a, b, which = bad[0]
                warnings.append(
                    f"model violates the positivity assumption: {which}({a},{b}) <= 0 "
                    f"({len(bad)} offending pair entries)")
            else:
                findings.append("model ok: positivity assumption holds on every tree")
        except GridTopError as exc:
            ok = False
            findings.append(f"invalid model: {exc}")

    if as_json:
        click.echo(json.dumps({"ok": ok, "findings": findings, "warnings": warnings}))
    else:
        for line in findings:
            click.echo(line)
        for line in warnings:
            click.echo(f"warning: {line}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
