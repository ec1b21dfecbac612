"""The benchmark's traced mode replaces named attributes of program modules
(``perfbench/spans.py``, ``WRAP_POINTS``) and stops with MissingWrapPoint
when one is gone.  Resolving them here catches a rename or a dropped import
in the regular suite, not only in a benchmark run.  The counters of those
wrap points read attributes of the program's arguments and results, so each
counter is also run once on a real call.  Unit 0 of each experiment
workload, at the reference seed, must write the error CSV that
``perfbench/reference.json`` records, as the benchmark's own check demands."""

import importlib
import json
from pathlib import Path

import pytest

from gridtop.fixtures import fixture_path, load_fixture
from gridtop.harness import simulate_voltage, write_error_csv, write_samples
from gridtop.moments import default_model, sample_injections

from dense_oracles import edge_weights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_benchmark_wrap_point_resolves(spans):
    resolved = spans.resolve_wrap_points()
    assert len(resolved) == len(spans.WRAP_POINTS)


def _call_args(tmp_path) -> dict:
    """Arguments for one small call of every function a counter follows,
    keyed by function name."""
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    batch = sample_injections(model, 20, seed=1)
    samples = simulate_voltage(forest, model, 20, seed=1)
    samples_file = tmp_path / "samples.csv"
    write_samples(samples_file, samples)
    return {
        "sample_injections": (model, 20, 1),
        "lcpf_solve_many": (forest, batch.p, batch.q),
        "distflow_solve": (forest, batch.p[0], batch.q[0]),
        "reconstruct": (samples, model, grid),
        "parse_grid": (fixture_path("bus_13_3"),),
        "write_samples": (tmp_path / "written.csv", samples),
        "read_samples": (samples_file,),
        "path_sum_matrix": (forest, edge_weights(forest, "g")),
    }


def test_every_benchmark_counter_reads_a_real_call(spans, tmp_path):
    calls = _call_args(tmp_path)
    # resolve_wrap_points gives (module, owner name, owner, method, target, span, counter).
    for _, _, _, _, target, _, counter in spans.resolve_wrap_points():
        if counter is None:
            continue
        args = calls[target.__name__]
        counts = dict.fromkeys(spans.COUNT_NAMES, 0)
        counter(counts, args, {}, target(*args))
        assert counts != dict.fromkeys(spans.COUNT_NAMES, 0), f"the counter of {target.__name__} counted nothing"


@pytest.mark.parametrize("name", ["mc_fixture", "distflow_mc"])
def test_experiment_workload_reproduces_its_reference_csv(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    workload = workloads.WORKLOADS[name](reference["seed"], False, tmp_path)
    plan = workload.inputs(reference["unit"])
    out = tmp_path / "errors.csv"
    write_error_csv(out, workload.run(plan))
    assert out.read_text() == reference["csv"][name]
