"""End-to-end command-line behavior via the click test runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from gridtop.errors import ParseError
from gridtop.fixtures import load_fixture
from gridtop.harness import parse_grid, plan_from_json, read_samples
from gridtop.harness.cli import _load_model, main
from gridtop.learner import LearnerConfig, reconstruct
from gridtop.moments import default_model

from conftest import scaled_model_doc


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


@pytest.mark.parametrize("bounds", [["0.3", "0.1"], ["nan", "0.3"], ["0.05", "inf"]])
def test_gen_grid_refuses_a_bad_resistance_range(runner, tmp_path, bounds):
    res = runner.invoke(main, ["gen-grid", "--loads", "5", "--r-min", bounds[0], "--r-max", bounds[1],
                               "-o", str(tmp_path / "x.json")])
    assert "r_range" in _one_error_line(res)


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


def test_learn_json_reports_the_decision_margins(runner, tmp_path):
    samples = tmp_path / "s.csv"
    runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "200", "--seed", "4", "-o", str(samples)])
    res = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(samples), "--tau", "0.05", "--json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    want = reconstruct(read_samples(samples), model, grid, LearnerConfig(tau=0.05))
    assert (doc["accept_margin"], doc["reject_margin"]) == (want.accept_margin, want.reject_margin)
    assert doc["accept_margin"] > 0.0 and doc["reject_margin"] >= 0.0


def test_learn_json_lists_the_parentless_loads(runner, tmp_path):
    # 200 samples at tau 0.01 leave most of bus_83_11's loads without a
    # learned parent line; only --json says which.
    samples = tmp_path / "s.csv"
    runner.invoke(main, ["simulate", "--grid", "bus_83_11", "-m", "200", "--seed", "3", "-o", str(samples)])
    args = ["learn", "--grid", "bus_83_11", "--samples", str(samples), "--tau", "0.01"]
    res = runner.invoke(main, args + ["--json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    grid, forest = load_fixture("bus_83_11")
    want = reconstruct(read_samples(samples), default_model(forest), grid, LearnerConfig(tau=0.01))
    assert doc["parentless_loads"] == list(want.parentless_loads) == sorted(doc["parentless_loads"])
    assert len(doc["parentless_loads"]) == grid.n_loads - len(doc["learned_edges"]) > 0
    assert set(doc["parentless_loads"]).isdisjoint(want.parent_map)
    text = runner.invoke(main, args)
    assert text.exit_code == 0 and "parentless" not in text.output


def test_learn_text_warns_of_parentless_loads_on_stderr(runner, tmp_path):
    # 30 samples leave most of bus_83_11's loads without a learned parent.
    # Text mode says how many on stderr, and stdout keeps its lines; --json
    # writes nothing to stderr.
    samples = tmp_path / "s.csv"
    runner.invoke(main, ["simulate", "--grid", "bus_83_11", "-m", "30", "--seed", "1", "-o", str(samples)])
    args = ["learn", "--grid", "bus_83_11", "--samples", str(samples)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    grid, forest = load_fixture("bus_83_11")
    want = reconstruct(read_samples(samples), default_model(forest), grid, LearnerConfig(), truth=forest)
    assert len(want.parentless_loads) > grid.n_loads // 2
    edges = sorted(want.learned_edges)
    assert res.stdout == "".join([f"learned {len(edges)} edges:\n", *(f"  {u} -- {v}\n" for u, v in edges),
                                  f"relative error vs declared forest: {want.relative_error}\n"])
    assert res.stderr == f"warning: {len(want.parentless_loads)} of 83 loads have no learned parent\n"
    res = runner.invoke(main, args + ["--json"])
    assert res.exit_code == 0 and res.stderr == ""
    json.loads(res.stdout)


def test_experiment_refuses_a_sample_count_it_cannot_hold_before_any_trial(runner, tmp_path):
    # The sampler is built before the trial loop, so a count its buffers
    # cannot hold ends the run with one error line, fails no trial and
    # writes no CSV.
    path, out = tmp_path / "plan.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"grid": "bus_13_3", "sample_counts": [2**63], "taus": [0.05], "trials": 3}))
    res = runner.invoke(main, ["experiment", "--plan", str(path), "-o", str(out)])
    assert "cannot hold 9223372036854775808 samples" in _one_error_line(res)
    assert res.stdout == "" and not out.exists()


def test_learn_json_writes_an_infinite_margin_as_a_string(runner, tmp_path):
    # A zero-variance model makes every closed form zero, so every tested
    # pair is rejected with an infinite deviation.
    samples, model_path = tmp_path / "s.csv", tmp_path / "zero.json"
    runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "50", "--seed", "1", "-o", str(samples)])
    grid, _ = load_fixture("bus_13_3")
    n = grid.n_loads
    zeros = np.zeros((n, n)).tolist()
    model_path.write_text(json.dumps({"kind": "explicit", "nodes": list(grid.load_ids), "mu_p": [0.0] * n,
                                      "mu_q": [0.0] * n, "sigma_p": zeros, "sigma_q": zeros, "sigma_pq": zeros}))
    res = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(samples), "--model", str(model_path),
                               "--json"])
    assert res.exit_code == 0, res.output

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    doc = json.loads(res.output, parse_constant=refuse)
    assert (doc["accept_margin"], doc["reject_margin"]) == (None, "inf")


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


def test_simulate_samples_a_model_in_any_node_order_in_the_forest_order(runner, tmp_path):
    grid, forest = load_fixture("bus_13_3")
    shuffled = [int(nid) for nid in np.random.default_rng(5).permutation(grid.load_ids)]
    written = []
    for order in (grid.load_ids, shuffled):
        model_path, out = tmp_path / f"model{len(written)}.json", tmp_path / f"s{len(written)}.csv"
        model_path.write_text(json.dumps(scaled_model_doc(forest, order)))
        res = runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "50", "--seed", "3",
                                   "--model", str(model_path), "-o", str(out)])
        assert res.exit_code == 0, res.output
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_simulate_refuses_a_model_over_other_ids(runner, tmp_path):
    grid, forest = load_fixture("bus_13_3")
    model_path, out = tmp_path / "model.json", tmp_path / "s.csv"
    model_path.write_text(json.dumps(scaled_model_doc(forest, grid.load_ids, shift=100)))
    res = runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "10", "--model", str(model_path),
                               "-o", str(out)])
    assert "model nodes do not match" in _one_error_line(res)
    assert not out.exists()


_BARE = {  # a grid that declares no operational forest
    "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"}, {"id": 2, "kind": "load"}],
    "edges": [{"from": 0, "to": 1, "r": 0.1, "x": 0.2}, {"from": 1, "to": 2, "r": 0.1, "x": 0.2}],
}
_EXPLICIT = {"kind": "explicit", "nodes": [1, 2], "mu_p": [-0.01, -0.01], "mu_q": [0.0, 0.0],
             "sigma_p": [[2e-4, 1e-4], [1e-4, 2e-4]], "sigma_q": [[0.0, 0.0], [0.0, 0.0]],
             "sigma_pq": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("model_text, exit_code, line", [
    ("{not json", 1, "invalid model: "),
    (json.dumps({"kind": "default"}), 1, "invalid model: a forest is required"),
    (json.dumps(dict(_EXPLICIT, nodes=[101, 102])), 1, "invalid model: model nodes do not match"),
    (json.dumps(_EXPLICIT), 0, "warning: positivity assumption not checked"),
], ids=["invalid-json", "default", "other-ids", "valid"])
def test_validate_reads_the_model_on_a_grid_without_a_forest(runner, tmp_path, model_text, exit_code, line):
    grid_path, model_path = tmp_path / "bare.json", tmp_path / "model.json"
    grid_path.write_text(json.dumps(_BARE))
    model_path.write_text(model_text)
    res = runner.invoke(main, ["validate", "--grid", str(grid_path), "--model", str(model_path)])
    assert res.exit_code == exit_code, res.output
    assert "no operational forest declared" in res.output
    assert [text for text in res.output.splitlines() if text.startswith(line)] != []


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
    ({"sede": 5}, "sede"),
    ({"enigne": "distflow"}, "enigne"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2, "seed": -3}}}, "grid.generator.seed"),
    ({"grid": {"generator": {"n_loads": True, "k_subs": 1, "n_extra_lines": 2}}}, "grid.generator.n_loads"),
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


def test_moments_refuses_a_moment_that_overflows(runner, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1,2\n1e200,1e200\n1e200,2e200\n")  # finite, so the file is read
    res = runner.invoke(main, ["moments", "--samples", str(path)])
    assert _one_error_line(res) == "error: moment entry of nodes (1, 1) is not finite"
    assert res.stdout == ""


def _one_error_line(res):
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a clean exit, not an escaped exception
    errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "Traceback" not in res.output
    return errors[0]


@pytest.mark.parametrize("command", ["learn", "moments"])
@pytest.mark.parametrize("text, where", [
    ("1,2\n0.1,0.2\n0.3,nan\n", "bad.csv:3: non-finite sample value"),
    ("1,2\n0.1,0.2\n0.3\n", "bad.csv:3: expected 2 columns, got 1"),
    ("1,2\n", "bad.csv: sample file has a header but no samples"),
])
def test_a_bad_sample_file_is_reported_at_its_line(runner, tmp_path, command, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    args = {
        "learn": ["learn", "--grid", "bus_13_3", "--samples", str(path)],
        "moments": ["moments", "--samples", str(path)],
    }[command]
    assert _one_error_line(runner.invoke(main, args)).endswith(where)


def test_learn_refuses_overflowing_samples_without_a_numpy_warning(runner, tmp_path):
    # No np.errstate here: the squares of 1e200 overflow, and a RuntimeWarning
    # would escape as an error before the DomainError.
    path = tmp_path / "big.csv"
    path.write_text(",".join(map(str, range(3, 16))) + "\n" + (",".join(["1e200"] * 13) + "\n") * 3)
    res = runner.invoke(main, ["learn", "--grid", "bus_13_3", "--samples", str(path)])
    assert _one_error_line(res) == "error: samples of node 3 have a non-finite mean square (inf)"


def _seeded_command(command, tmp_path):
    if command == "experiment":
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"grid": "bus_13_3", "sample_counts": [20], "taus": [0.1], "trials": 1}))
        return ["experiment", "--plan", str(plan), "-o", str(tmp_path / "out.csv")]
    return {
        "gen-grid": ["gen-grid", "--loads", "5", "-o", str(tmp_path / "g.json")],
        "simulate": ["simulate", "--grid", "bus_13_3", "-m", "10", "-o", str(tmp_path / "s.csv")],
    }[command]


@pytest.mark.parametrize("command", ["gen-grid", "simulate"])
def test_a_negative_seed_is_refused(runner, tmp_path, command):
    res = runner.invoke(main, _seeded_command(command, tmp_path) + ["--seed", "-1"])
    assert "--seed must be a non-negative integer" in _one_error_line(res)


@pytest.mark.parametrize("command", ["gen-grid", "simulate", "experiment"])
@pytest.mark.parametrize("value", ["x", "-2"])
def test_a_bad_env_seed_is_refused(runner, tmp_path, monkeypatch, command, value):
    monkeypatch.setenv("GRIDTOP_SEED", value)
    res = runner.invoke(main, _seeded_command(command, tmp_path))
    assert f"GRIDTOP_SEED must be a non-negative integer, got {value!r}" in _one_error_line(res)


@pytest.mark.parametrize("command", ["gen-grid", "simulate", "moments", "learn", "experiment"])
def test_an_unwritable_output_path_is_named(runner, tmp_path, command):
    samples = tmp_path / "s.csv"
    runner.invoke(main, ["simulate", "--grid", "bus_13_3", "-m", "20", "--seed", "1", "-o", str(samples)])
    missing = tmp_path / "no_such_dir" / "out"
    args = {
        "gen-grid": ["gen-grid", "--loads", "5", "-o", str(missing)],
        "simulate": ["simulate", "--grid", "bus_13_3", "-m", "10", "-o", str(missing)],
        "moments": ["moments", "--samples", str(samples), "-o", str(missing)],
        "learn": ["learn", "--grid", "bus_13_3", "--samples", str(samples), "--trace", str(missing)],
        "experiment": _seeded_command("experiment", tmp_path)[:-1] + [str(missing)],
    }[command]
    assert str(missing) in _one_error_line(runner.invoke(main, args))


@pytest.mark.parametrize("command", ["learn", "moments", "experiment", "simulate", "validate"])
def test_a_file_that_is_not_utf8_is_named(runner, tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    args = {
        "learn": ["learn", "--grid", "bus_13_3", "--samples", str(bad)],
        "moments": ["moments", "--samples", str(bad)],
        "experiment": ["experiment", "--plan", str(bad), "-o", str(tmp_path / "out.csv")],
        "simulate": ["simulate", "--grid", str(bad), "-m", "10", "-o", str(tmp_path / "s.csv")],
        "validate": ["validate", "--grid", "bus_13_3", "--model", str(bad)],
    }[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    prefix = "invalid model: " if command == "validate" else "error: "
    errors = [line for line in res.output.splitlines() if line.startswith(prefix)]
    assert len(errors) == 1 and f"{bad}: cannot read" in errors[0] and "not UTF-8" in errors[0]


@pytest.mark.parametrize("read, noun", [
    (lambda path: _load_model(path, load_fixture("bus_13_3")[1]), "model file"),
    (parse_grid, "grid file"),
    (read_samples, "sample file"),
    (plan_from_json, "plan"),
], ids=["model", "grid", "samples", "plan"])
def test_a_file_that_cannot_be_read_is_a_parse_error(tmp_path, read, noun):
    with pytest.raises(ParseError) as err:
        read(str(tmp_path))  # a directory
    assert str(err.value).startswith(f"{tmp_path}: cannot read {noun}: ")
