"""End-to-end command-line behavior via the click test runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from gridtop.harness.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_gen_grid_then_validate(runner, tmp_path):
    out = tmp_path / "g.json"
    res = runner.invoke(main, ["gen-grid", "--loads", "8", "--subs", "2", "--ties", "1",
                               "--extra", "3", "--seed", "7", "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert out.exists()
    res = runner.invoke(main, ["validate", "--grid", str(out)])
    assert res.exit_code == 0
    assert "grid ok" in res.output and "forest ok" in res.output


def test_gen_grid_usage_error_exit_code(runner):
    res = runner.invoke(main, ["gen-grid", "--loads", "8"])  # missing -o
    assert res.exit_code == 2


def test_gen_grid_infeasible_params_exit_one(runner, tmp_path):
    res = runner.invoke(main, ["gen-grid", "--loads", "2", "--subs", "3",
                               "-o", str(tmp_path / "x.json")])
    assert res.exit_code == 1
    assert "error" in res.output or "error" in (res.stderr or "")


def test_simulate_moments_learn_pipeline(runner, tmp_path):
    samples = tmp_path / "samples.csv"
    res = runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "2000",
                               "--seed", "3", "-o", str(samples)])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, ["moments", "--samples", str(samples)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["m"] == 2000 and len(doc["nodes"]) == 13
    sig = np.array(doc["sigma_eps"])
    np.testing.assert_allclose(sig, sig.T, atol=1e-18)

    trace = tmp_path / "trace.csv"
    res = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(samples),
                               "--tau", "0.1", "--variant", "lc", "--trace", str(trace), "--json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert "learned_edges" in doc and doc["relative_error"] is not None
    lines = trace.read_text().splitlines()
    assert lines[0] == "leaf,candidate,lhs,rhs,deviation,accepted,note"
    assert len(lines) > 1


def test_learn_human_readable_output(runner, tmp_path):
    samples = tmp_path / "s.csv"
    runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "4000", "--seed", "5",
                         "-o", str(samples)])
    res = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(samples),
                               "--tau", "0.05"])
    assert res.exit_code == 0
    assert "learned" in res.output and "relative error" in res.output


def test_experiment_cli_byte_identical_reruns(runner, tmp_path):
    plan = {
        "grid": "bus_13_3",
        "sample_counts": [50, 100],
        "taus": [0.1],
        "trials": 3,
        "seed": 4,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    r1 = runner.invoke(main, ["experiment", "--plan", str(plan_path), "-o", str(out1)])
    r2 = runner.invoke(main, ["experiment", "--plan", str(plan_path), "-o", str(out2)])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_cli_verbose_writes_trials(runner, tmp_path):
    plan = {"grid": "bus_13_3", "sample_counts": [40], "taus": [0.1], "trials": 2, "seed": 1}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "res.csv"
    res = runner.invoke(main, ["experiment", "--plan", str(plan_path), "-o", str(out),
                               "--verbose", "--gnuplot"])
    assert res.exit_code == 0
    assert (tmp_path / "res.csv.trials.csv").exists()
    assert (tmp_path / "res.csv.gnuplot").exists()


def test_validate_flags_assumption_violating_model(runner, tmp_path):
    # A model with a negative same-tree cross moment must produce a warning
    # naming the offending pair.
    n = 13
    from gridtop.fixtures import load_fixture

    grid, forest = load_fixture("bus_13_3")
    nodes = list(grid.load_ids)
    sigma_p = (np.eye(n) * 1e-4).tolist()
    a, b = [nid for nid in nodes if forest.tree_of[nid] == forest.tree_of[nodes[0]]][:2]
    ia, ib = nodes.index(a), nodes.index(b)
    sigma_p[ia][ib] = sigma_p[ib][ia] = -1e-5
    model_doc = {
        "kind": "explicit",
        "nodes": nodes,
        "mu_p": [0.0] * n,
        "mu_q": [0.0] * n,
        "sigma_p": sigma_p,
        "sigma_q": (np.eye(n) * 1e-4).tolist(),
        "sigma_pq": (np.eye(n) * 1e-5).tolist(),
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc))
    res = runner.invoke(main, ["validate", "--grid", "bus_13_3", "--model", str(model_path)])
    assert res.exit_code == 0
    assert "warning" in res.output
    assert f"({a},{b})" in res.output


def test_validate_invalid_grid_exits_one(runner, tmp_path):
    doc = {
        "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"},
                  {"id": 2, "kind": "load"}],
        "edges": [
            {"from": 0, "to": 1, "r": 0.1, "x": 0.1, "closed": True},
            {"from": 1, "to": 2, "r": 0.1, "x": 0.1, "closed": True},
            {"from": 2, "to": 0, "r": 0.1, "x": 0.1, "closed": True},
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["validate", "--grid", str(bad)])
    assert res.exit_code == 1
    assert "invalid" in res.output


def test_validate_json_mode(runner):
    res = runner.invoke(main, ["validate", "--grid", "bus_29_1", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ok"] is True


def test_simulate_rejects_grid_without_forest(runner, tmp_path):
    doc = {
        "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"}],
        "edges": [{"from": 0, "to": 1, "r": 0.1, "x": 0.2}],
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["simulate", "--grid", str(path), "-m", "10",
                               "-o", str(tmp_path / "s.csv")])
    assert res.exit_code == 1


def test_env_seed_fallback(runner, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("GRIDTOP_SEED", "55")
    r1 = runner.invoke(main, ["gen-grid", "--loads", "5", "-o", str(out1)])
    r2 = runner.invoke(main, ["gen-grid", "--loads", "5", "-o", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("overrides, key", [
    ({"trials": "x"}, "trials"),
    ({"sample_counts": 10}, "sample_counts"),
    ({"taus": "0.1"}, "taus"),
    ({"forest": {"closed_edges": [0.5]}}, "closed edge index 0.5 is not an integer"),
    ({"trials": 2.7}, "trials"),
    ({"taus": ["0.1"]}, "taus"),
    ({"model": 3}, "model"),
    ({"model": {"kind": "explicit"}}, "'nodes'"),
    ({"model": {"mu_p": "x"}}, "model.mu_p"),
    ({"model": {"sigma_ration": 0.3}}, "model.sigma_ration"),
    ({"forest": {"random_seed": "x"}}, "forest.random_seed"),
])
def test_experiment_cli_reports_a_mis_typed_plan_value(runner, tmp_path, overrides, key):
    plan = {"grid": "bus_13_3", "sample_counts": [20], "taus": [0.1], "trials": 1, "seed": 1}
    plan.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["experiment", "--plan", str(path), "-o", str(tmp_path / "out.csv")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a clean exit, not an escaped exception
    errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and key in errors[0]
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["simulate", "learn", "validate"])
@pytest.mark.parametrize("model_doc, key", [
    ({"mu_p": "x"}, "model.mu_p"),
    ({"sigma_ration": 0.3}, "model.sigma_ration"),
    ({"kind": "explicit"}, "'nodes'"),
    (3, "model"),
])
def test_model_file_errors_name_their_key(runner, tmp_path, command, model_doc, key):
    model_path, samples_path = tmp_path / "model.json", tmp_path / "samples.csv"
    model_path.write_text(json.dumps(model_doc))
    samples_path.write_text("1,2\n0.1,0.2\n")
    args = {
        "simulate": ["simulate", "--grid", "bus_13_3", "-m", "10", "-o", str(tmp_path / "s.csv")],
        "learn": ["learn", "--grid", "bus_13_3", "--samples", str(samples_path)],
        "validate": ["validate", "--grid", "bus_13_3"],
    }[command]
    res = runner.invoke(main, args + ["--model", str(model_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    prefix = "invalid model: " if command == "validate" else "error: "
    errors = [line for line in res.output.splitlines() if line.startswith(prefix)]
    assert len(errors) == 1 and key in errors[0]
