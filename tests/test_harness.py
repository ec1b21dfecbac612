"""Grid files, generators, bundled fixtures, and the experiment driver."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError, ParseError, StructureError
from gridtop.fixtures import fixture_path, load_fixture
from gridtop.harness import (
    add_open_lines,
    generate_random_grid,
    parse_grid,
    plan_from_dict,
    random_spanning_forest,
    read_samples,
    run_experiment,
    simulate_voltage,
    write_error_csv,
    write_grid,
    write_samples,
)
from gridtop.harness.experiment import write_gnuplot_script, write_trial_csv
from gridtop.harness.gridfile import _parse_samples_checked, _parse_samples_plain
from gridtop.learner import LearnerConfig, reconstruct
from gridtop.moments import default_model
from gridtop.powerflow import VoltageSamples

from conftest import chain_grid


# -- grid files -----------------------------------------------------------------


MINIMAL = {
    "meta": {"name": "mini"},
    "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"}],
    "edges": [{"from": 0, "to": 1, "r": 0.1, "x": 0.2, "closed": True}],
}


def test_parse_minimal_two_node_grid():
    grid, forest = parse_grid(MINIMAL)
    assert grid.n_substations == 1 and grid.n_loads == 1
    assert forest is not None and forest.closed_edges == (0,)
    assert grid.name == "mini"


def test_parse_without_closed_keys_declares_no_forest():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["edges"][0]["closed"]
    grid, forest = parse_grid(doc)
    assert forest is None


def test_parse_rejects_closed_cycle():
    doc = {
        "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"}, {"id": 2, "kind": "load"}],
        "edges": [
            {"from": 0, "to": 1, "r": 0.1, "x": 0.1, "closed": True},
            {"from": 1, "to": 2, "r": 0.1, "x": 0.1, "closed": True},
            {"from": 2, "to": 0, "r": 0.1, "x": 0.1, "closed": True},
        ],
    }
    with pytest.raises(StructureError, match="cycle"):
        parse_grid(doc)


def test_parse_reports_json_syntax_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "nodes": [,]\n}\n')
    with pytest.raises(ParseError) as excinfo:
        parse_grid(path)
    assert "broken.json:2" in str(excinfo.value)


def test_parse_reports_schema_path(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["r"] = "fast"
    with pytest.raises(ParseError, match=r"edges\[0\]"):
        parse_grid(doc)
    doc2 = json.loads(json.dumps(MINIMAL))
    del doc2["nodes"][0]["kind"]
    with pytest.raises(ParseError, match=r"nodes\[0\].*kind"):
        parse_grid(doc2)
    # A JSON boolean is not an integer, though Python's True == 1.
    doc3 = json.loads(json.dumps(MINIMAL))
    doc3["nodes"][1]["id"] = True
    with pytest.raises(ParseError, match=r"nodes\[1\].*'id' has wrong type bool"):
        parse_grid(doc3)
    doc4 = json.loads(json.dumps(MINIMAL))
    doc4["edges"][0].update({"from": True, "to": 0})
    with pytest.raises(ParseError, match=r"edges\[0\].*'from' has wrong type bool"):
        parse_grid(doc4)


def test_parse_missing_file():
    with pytest.raises(ParseError, match="file not found"):
        parse_grid("no/such/grid.json")


def test_grid_file_round_trip(tmp_path):
    grid, forest = generate_random_grid(9, 2, 4, n_tie_lines=2, seed=5, name="rt")
    path = tmp_path / "rt.json"
    write_grid(path, grid, forest)
    grid2, forest2 = parse_grid(path)
    assert grid2 == grid
    assert forest2.closed_edges == forest.closed_edges
    path2 = tmp_path / "rt2.json"
    write_grid(path2, grid2, forest2)
    assert path.read_text() == path2.read_text()


# -- generator ------------------------------------------------------------------


def test_generator_purely_radial_when_no_extras():
    grid, forest = generate_random_grid(6, 1, 0, seed=3)
    assert len(grid.edges) == len(forest.closed_edges) == 6


def test_generator_extra_impedances_within_operational_range():
    grid, forest = generate_random_grid(20, 2, 15, n_tie_lines=2, seed=9)
    closed = set(forest.closed_edges)
    r_ops = [grid.edges[ei].r for ei in closed]
    x_ops = [grid.edges[ei].x for ei in closed]
    for i, e in enumerate(grid.edges):
        if i in closed:
            continue
        assert min(r_ops) <= e.r <= max(r_ops)
        assert min(x_ops) <= e.x <= max(x_ops)


def test_generator_deterministic_and_seed_sensitive():
    g1, f1 = generate_random_grid(12, 3, 6, n_tie_lines=2, seed=42)
    g2, f2 = generate_random_grid(12, 3, 6, n_tie_lines=2, seed=42)
    g3, _ = generate_random_grid(12, 3, 6, n_tie_lines=2, seed=43)
    assert g1 == g2 and f1.closed_edges == f2.closed_edges
    assert g1 != g3


def test_generator_rejects_infeasible_parameters():
    with pytest.raises(DomainError):
        generate_random_grid(2, 3, 0)  # fewer loads than substations
    with pytest.raises(DomainError):
        generate_random_grid(4, 3, 0, n_tie_lines=1)  # cannot connect 3 trees
    with pytest.raises(DomainError):
        generate_random_grid(2, 1, 50)  # more lines than node pairs


def test_generator_every_tree_gets_a_load():
    grid, forest = generate_random_grid(11, 4, 8, n_tie_lines=3, seed=1)
    for k in range(forest.n_trees):
        members = [n for n, t in forest.tree_of.items() if t == k]
        assert any(not grid.is_substation(n) for n in members)


def test_add_open_lines_preserves_forest_and_ranges():
    grid, forest = generate_random_grid(8, 2, 3, n_tie_lines=1, seed=4)
    grid2, forest2 = add_open_lines(grid, forest, 10, seed=12)
    assert len(grid2.edges) == len(grid.edges) + 10
    assert forest2.closed_edges == forest.closed_edges
    r_ops = [grid.edges[ei].r for ei in forest.closed_edges]
    for e in grid2.edges[len(grid.edges):]:
        assert min(r_ops) <= e.r <= max(r_ops)


def test_random_spanning_forest_is_base_constrained():
    grid, _ = generate_random_grid(15, 3, 10, n_tie_lines=2, seed=8)
    forest = random_spanning_forest(grid, seed=2)
    assert len(forest.closed_edges) == grid.n_loads
    assert forest.n_trees == 3


# -- fixtures ---------------------------------------------------------------------


@pytest.mark.parametrize("name,loads,subs,ties,extras", [
    ("bus_13_3", 13, 3, 3, 10),
    ("bus_29_1", 29, 1, 1, 20),
    ("bus_83_11", 83, 11, 13, 30),
])
def test_fixture_conforms_to_published_counts(name, loads, subs, ties, extras):
    grid, forest = load_fixture(name)
    assert grid.n_loads == loads
    assert grid.n_substations == subs
    assert len(forest.closed_edges) == loads
    open_edges = [e for i, e in enumerate(grid.edges) if i not in set(forest.closed_edges)]
    assert sum(1 for e in open_edges if e.switchable) == ties
    assert sum(1 for e in open_edges if not e.switchable) == extras


def test_fixture_round_trip(tmp_path):
    grid, forest = load_fixture("bus_13_3")
    path = tmp_path / "again.json"
    write_grid(path, grid, forest)
    grid2, forest2 = parse_grid(path)
    assert grid2 == grid
    assert forest2.closed_edges == forest.closed_edges
    assert path.read_text() == fixture_path("bus_13_3").read_text()


# -- sample files -------------------------------------------------------------------


def test_sample_csv_round_trip_is_exact(tmp_path):
    grid, forest = chain_grid(5, seed=3)
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 64, seed=21)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    back = read_samples(path)
    assert back.nodes == samples.nodes
    np.testing.assert_array_equal(back.eps, samples.eps)


def test_write_samples_writes_what_a_csv_writer_writes(tmp_path):
    rng = np.random.default_rng(4)
    special = [-0.0, 5e-324, 1.8e308, -1.8e308, 1e16, math.nan, math.inf, -math.inf]
    eps = np.vstack([rng.normal(0.0, 0.02, (5, 8)), special])
    samples = VoltageSamples(nodes=(7, 3, 12, 1, 9, 4, 30, 2), eps=eps, theta=None)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow([str(nid) for nid in samples.nodes])
    for row in eps:
        writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == want.getvalue().encode()


def test_file_pipeline_equals_in_memory_pipeline(tmp_path):
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 600, seed=5)
    config = LearnerConfig(tau=0.1)
    in_memory = reconstruct(samples, model, grid, config, truth=forest)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    from_file = reconstruct(read_samples(path), model, grid, config, truth=forest)
    assert from_file.learned_edges == in_memory.learned_edges
    assert from_file.relative_error == in_memory.relative_error
    assert from_file.trace == in_memory.trace


def test_read_samples_reports_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n0.1,0.2\n0.3\n")
    with pytest.raises(ParseError, match="bad.csv:3"):
        read_samples(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_samples_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n0.1,0.2\n\n0.3,{cell}\n0.5,0.6\n")
    with pytest.raises(ParseError, match="bad.csv:4: non-finite"):
        read_samples(path)


def test_reconstruct_rejects_non_finite_sample_column():
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 200, seed=3)
    eps = samples.eps.copy()
    col = 4
    eps[17, col] = np.nan
    bad = type(samples)(nodes=samples.nodes, eps=eps, theta=None)
    with pytest.raises(DomainError, match=f"node {samples.nodes[col]} "):
        reconstruct(bad, model, grid, LearnerConfig(tau=0.05))


def test_reconstruct_rejects_non_finite_moment_entry():
    from gridtop.moments import MomentSet, analytic_moment_set

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    mset = analytic_moment_set(forest, model)
    sigma = mset.sigma_eps.copy()
    nodes = mset.nodes
    sigma[2, 5] = np.inf
    bad = MomentSet(nodes=nodes, sigma_eps=sigma, sigma_theta=None, sigma_theta_eps=None, source="analytic")
    with pytest.raises(DomainError, match=rf"nodes \({nodes[2]}, {nodes[5]}\)"):
        reconstruct(bad, model, grid, LearnerConfig(tau=0.05))


@pytest.mark.parametrize("extra", [-1, 3])
def test_reconstruct_rejects_samples_with_the_wrong_column_count(extra):
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    eps = simulate_voltage(forest, model, 50, seed=3).eps
    n = grid.n_loads
    cols = eps[:, :n + extra] if extra < 0 else np.hstack([eps, eps[:, :extra]])
    with pytest.raises(DomainError, match=rf"shape \(m, {n}\)"):
        reconstruct(VoltageSamples(nodes=grid.load_ids, eps=cols), model, grid, LearnerConfig(tau=0.05))


def test_voltage_samples_reject_mis_shaped_theta():
    with pytest.raises(DomainError, match="theta"):
        VoltageSamples(nodes=(1, 2), eps=np.zeros((4, 2)), theta=np.zeros((4, 3)))
    with pytest.raises(DomainError, match="eps"):
        VoltageSamples(nodes=(1, 2), eps=np.zeros(2))


def test_moment_set_rejects_mis_shaped_matrices():
    from gridtop.moments import MomentSet

    with pytest.raises(DomainError, match="sigma_eps"):
        MomentSet(nodes=(1, 2, 3), sigma_eps=np.eye(2), sigma_theta=None, sigma_theta_eps=None,
                  source="analytic")
    with pytest.raises(DomainError, match="sigma_theta_eps"):
        MomentSet(nodes=(1, 2), sigma_eps=np.eye(2), sigma_theta=np.eye(2),
                  sigma_theta_eps=np.eye(3), source="analytic")


def test_voltage_samples_given_as_lists_are_learned_like_arrays():
    from gridtop.moments import empirical_moments

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 200, seed=3)
    listed = VoltageSamples(nodes=samples.nodes, eps=samples.eps.tolist(), theta=samples.theta.tolist())
    assert isinstance(listed.eps, np.ndarray) and isinstance(listed.theta, np.ndarray)
    assert np.array_equal(empirical_moments(listed).sigma_eps, empirical_moments(samples).sigma_eps)
    config = LearnerConfig(tau=0.05)
    assert (reconstruct(listed, model, grid, config).learned_edges
            == reconstruct(samples, model, grid, config).learned_edges)


@pytest.mark.parametrize("name, value", [("eps", [[0.0, 1.0], [2.0]]), ("eps", [["a", "b"]]),
                                         ("theta", [[0.0, "b"]]), ("eps", [["1", "0"]]),
                                         ("eps", np.array([["1", "0"]])),
                                         ("eps", np.array([[1.0, "0"]], dtype=object)), ("theta", [[b"0", b"1"]])])
def test_voltage_samples_reject_entries_they_cannot_hold_as_floats(name, value):
    fields = {"eps": np.zeros((1, 2)), name: value}
    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        VoltageSamples(nodes=(1, 2), **fields)


def test_voltage_samples_coerce_deferred_phases_on_first_read():
    from gridtop.powerflow import _Deferred

    samples = VoltageSamples(nodes=(1, 2), eps=np.zeros((1, 2)), theta=_Deferred(lambda: {"theta": [[1, 2]]}))
    assert samples.theta.dtype == float and np.array_equal(samples.theta, [[1.0, 2.0]])
    bad = VoltageSamples(nodes=(1, 2), eps=np.zeros((1, 2)), theta=_Deferred(lambda: {"theta": [["a", 2]]}))
    with pytest.raises(DomainError, match="^theta must be an array of numbers"):
        bad.theta


def test_containers_keep_float_arrays_without_a_copy():
    from gridtop.moments import MomentSet

    eps, theta, sigma = np.zeros((3, 2)), np.ones((3, 2)), np.eye(2)
    samples = VoltageSamples(nodes=(1, 2), eps=eps, theta=theta)
    assert samples.eps is eps and samples.theta is theta
    mset = MomentSet(nodes=(1, 2), sigma_eps=sigma, sigma_theta=sigma, sigma_theta_eps=None, source="empirical")
    assert mset.sigma_eps is sigma and mset.sigma_theta is sigma


def test_moment_set_given_as_lists_is_learned_like_arrays():
    from gridtop.moments import MomentSet, analytic_moment_set

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    exact = analytic_moment_set(forest, model)
    plain = MomentSet(nodes=exact.nodes, sigma_eps=exact.sigma_eps, sigma_theta=None, sigma_theta_eps=None,
                      source="analytic")
    listed = MomentSet(nodes=exact.nodes, sigma_eps=exact.sigma_eps.tolist(), sigma_theta=None,
                       sigma_theta_eps=None, source="analytic")
    config = LearnerConfig(tau=1e-6)
    assert reconstruct(listed, model, grid, config).trace == reconstruct(plain, model, grid, config).trace


@pytest.mark.parametrize("name", ["sigma_eps", "sigma_theta", "sigma_theta_eps"])
def test_moment_set_rejects_entries_it_cannot_hold_as_floats(name):
    from gridtop.moments import MomentSet

    fields = {"sigma_eps": np.eye(2), "sigma_theta": None, "sigma_theta_eps": None, name: [["a", "0"], ["0", "1"]]}
    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        MomentSet(nodes=(1, 2), source="analytic", **fields)


@pytest.mark.parametrize("name", ["sigma_eps", "sigma_theta", "sigma_theta_eps"])
@pytest.mark.parametrize("text", [[["1", "0"], ["0", "1"]], np.array([["1", "0"], ["0", "1"]]),
                                  np.array([[1.0, "0"], [0.0, 1.0]], dtype=object)])
def test_moment_set_refuses_numeric_strings(name, text):
    from gridtop.moments import MomentSet

    fields = {"sigma_eps": np.eye(2), "sigma_theta": None, "sigma_theta_eps": None, name: text}
    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        MomentSet(nodes=(1, 2), source="analytic", **fields)


def _doubled(nodes, matrix, repeat):
    """``nodes`` with ``repeat`` appended once more, and ``matrix`` padded
    with a column (and a row, for a square matrix) of ones to match."""
    rows, cols = matrix.shape
    out = np.ones((rows + (rows == cols), cols + 1))
    out[:rows, :cols] = matrix
    return tuple(nodes) + (repeat,), out


def test_voltage_samples_reject_a_repeated_node_id():
    # The repeated column once let reconstruct return a plausible forest
    # (relative error 0.077 here) with no error.
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 2000, seed=5)
    nodes, eps = _doubled(samples.nodes, samples.eps, 3)
    with pytest.raises(DomainError, match="node id 3 is listed twice"):
        reconstruct(VoltageSamples(nodes=nodes, eps=eps), model, grid, LearnerConfig(tau=0.05), truth=forest)


def test_moment_set_rejects_a_repeated_node_id():
    from gridtop.moments import MomentSet, analytic_moment_set

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    mset = analytic_moment_set(forest, model)
    nodes, sigma = _doubled(mset.nodes, mset.sigma_eps, 3)
    with pytest.raises(DomainError, match="node id 3 is listed twice"):
        bad = MomentSet(nodes=nodes, sigma_eps=sigma, sigma_theta=None, sigma_theta_eps=None, source="analytic")
        reconstruct(bad, model, grid, LearnerConfig(tau=1e-4), truth=forest)


def test_injection_model_rejects_a_repeated_node_id():
    from gridtop.errors import ModelError
    from gridtop.moments import InjectionModel

    with pytest.raises(ModelError, match="node id 2 is listed twice"):
        InjectionModel(nodes=(1, 2, 2), mu_p=-np.ones(3), mu_q=-np.ones(3),
                       sigma_p=np.eye(3), sigma_q=np.eye(3), sigma_pq=np.zeros((3, 3)))
    model = default_model(load_fixture("bus_13_3")[1])
    with pytest.raises(ModelError, match="node id 3 is listed twice"):
        model.aligned_to(model.nodes + (3,))


@pytest.mark.parametrize("text, where", [
    ("1" * 140_002 + ",2\n0.1,0.2\n", "bad.csv:1"),
    ("1,2\n0.1,0.2\n0.3," + "4" * 140_000 + "\n", "bad.csv:3"),
], ids=["header", "body"])
def test_read_samples_reports_an_over_long_field_at_its_line(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{where}: malformed CSV: field larger than field limit"):
        read_samples(path)


def test_read_samples_rejects_a_repeated_header_id(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,1\n0.1,0.2,0.3\n")
    with pytest.raises(ParseError, match="bad.csv:1: header row lists node id 1 twice"):
        read_samples(path)


# Pieces that mutate a well-formed sample file: number syntax, CSV syntax,
# ASCII and Unicode whitespace (both the kinds that ``float`` and
# ``np.loadtxt`` strip alike and the ASCII controls only numpy strips),
# line separators that ``str.splitlines`` would split on, a Unicode digit,
# non-finite values, blank and whitespace-only lines, and a trailing comma.
_MUTATIONS = list("0123456789.e+-_,\"#") + [
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\u0663",
    "nan", "inf", "-inf", "1e400", "\n", "\n\n", "\n \n", "\n\t\n", ",\n",
]


def _read_both_ways(path, text):
    """read_samples' outcome on ``text``, after checking that it is the
    checked parser's: the same ParseError, or the same ids and array bytes."""
    def outcome(parse):
        try:
            samples = parse()
        except ParseError as exc:
            return "error", str(exc)
        return "ok", samples.nodes, samples.eps.shape, samples.eps.tobytes()

    path.write_text(text, newline="")
    fast = outcome(lambda: read_samples(path))
    assert fast == outcome(lambda: _parse_samples_checked(path.read_text(), str(path)))
    return fast


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(0, 3), data=st.data())
def test_read_samples_agrees_with_the_checked_parser(tmp_path_factory, n, m, data):
    ids = data.draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n, unique=True))
    cells = st.floats().map(repr)
    rows = [data.draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(m)]
    text = "\n".join([",".join(map(str, ids))] + [",".join(row) for row in rows])
    text += data.draw(st.sampled_from(["\n", "", "\n\n"]))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.booleans()), max_size=3))
    rnd = data.draw(st.randoms(use_true_random=False))
    for piece, replace in edits:
        # Half the edits land next to a comma or line break, where a cell's
        # leading or trailing whitespace sits; the rest anywhere.
        cuts = [0, len(text)] + [i + d for i, c in enumerate(text) if c in ",\n" for d in (0, 1)]
        at = rnd.choice(cuts) if rnd.random() < 0.5 else rnd.randrange(len(text) + 1)
        text = text[:at] + piece + text[at + replace:]
    _read_both_ways(tmp_path_factory.mktemp("samples") / "s.csv", text)


@pytest.mark.parametrize("text, want", [
    ("7\n0.5\x0c0.25\n", "s.csv:2: non-numeric sample value"),  # one line to csv, two to splitlines
    ("1\n0.5\u20280.25\n", "s.csv:2: non-numeric sample value"),
    ("1,2\n\x1c0.5,0.25\n", "s.csv:2: non-numeric sample value"),  # numpy strips \x1c, float does not
    ('1,2\n"0.5",0.25\n', (0.5, 0.25)),
    ('"1",2\n0.5,0.25\n', (0.5, 0.25)),
    ("1\n1_0\n", (10.0,)),
    ("1\n\u0663\n", (3.0,)),
    ("1,2\n0.1,0.2,0.3\n0.4,0.5,0.6\n", "s.csv:2: expected 2 columns, got 3"),
    ("1,2\n", "s.csv: sample file has a header but no samples"),
    ("1,2\n0.1,0.2\n\n0.3,1e400\n", "s.csv:4: non-finite sample value"),
])
def test_read_samples_falls_back_to_the_checked_parser(tmp_path, text, want):
    got = _read_both_ways(tmp_path / "s.csv", text)
    if isinstance(want, str):
        assert got[0] == "error" and got[1].endswith(want)
    else:
        assert got[0] == "ok" and np.frombuffer(got[3]).tolist() == list(want)


def test_a_written_sample_file_takes_the_one_pass_parse(tmp_path):
    grid, forest = load_fixture("bus_13_3")
    samples = simulate_voltage(forest, default_model(forest), 50, seed=2)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    fast = _parse_samples_plain(path.read_text())
    assert fast is not None and fast.nodes == samples.nodes
    assert fast.eps.tobytes() == samples.eps.tobytes()


# -- experiment driver -----------------------------------------------------------


def _tiny_plan(**overrides):
    doc = {
        "grid": "bus_13_3",
        "sample_counts": [50, 100],
        "taus": [0.1],
        "trials": 3,
        "seed": 99,
    }
    doc.update(overrides)
    return plan_from_dict(doc)


def test_plan_parses_inf_sentinel():
    plan = _tiny_plan(sample_counts=["inf", 100])
    assert math.isinf(plan.sample_counts[0])
    assert plan.sample_counts[1] == 100


def test_plan_validation():
    with pytest.raises(DomainError):
        _tiny_plan(trials=0)
    with pytest.raises(DomainError):
        _tiny_plan(sample_counts=[])
    with pytest.raises(DomainError):
        _tiny_plan(sample_counts=[0])
    with pytest.raises(ParseError):
        plan_from_dict({"grid": "bus_13_3", "taus": [0.1], "trials": 1})


@pytest.mark.parametrize("key, value", [
    ("trials", "x"), ("trials", None), ("sample_counts", 10), ("sample_counts", [100, "x"]),
    ("taus", "0.1"), ("taus", [0.1, [0.2]]), ("seed", "x"), ("augment_open_lines", "x"),
    # exact types: no truncation of floats, no bools as numbers, no numeric strings
    ("trials", 2.7), ("trials", True), ("seed", 1.9), ("seed", -1), ("sample_counts", [True]),
    ("sample_counts", [100, 2.5]), ("augment_open_lines", True), ("taus", ["0.1"]), ("taus", [True]),
    # misspelt keys are refused, not ignored
    ("sede", 5), ("enigne", "distflow"),
])
def test_plan_rejects_a_mis_typed_value_naming_its_key(key, value):
    with pytest.raises(ParseError, match=f"^{key}: "):
        _tiny_plan(**{key: value})


@pytest.mark.parametrize("overrides, location", [
    ({"model": 3}, "model"),
    ({"model": {"kind": "explicit"}}, "model"),
    ({"model": {"kind": "mystery"}}, "model.kind"),
    ({"model": {"mu_p": "x"}}, "model.mu_p"),
    ({"model": {"rho": True}}, "model.rho"),
    ({"model": {"sigma_ration": 0.3}}, "model.sigma_ration"),
    ({"forest": {"random_seed": "x"}}, "forest.random_seed"),
    ({"forest": {"random_seed": 2.5}}, "forest.random_seed"),
    ({"forest": {"random_seed": -1}}, "forest.random_seed"),
    ({"grid": {"generator": 3}}, "grid.generator"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2, "seed": -3}}}, "grid.generator.seed"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2, "seed": 1.5}}}, "grid.generator.seed"),
    ({"grid": {"generator": {"n_loads": True, "k_subs": 1, "n_extra_lines": 2}}}, "grid.generator.n_loads"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": "1", "n_extra_lines": 2}}}, "grid.generator.k_subs"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": None}}}, "grid.generator.n_extra_lines"),
    ({"grid": {"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2, "n_tie_lines": 2.5}}},
     "grid.generator.n_tie_lines"),
])
def test_plan_model_and_forest_errors_name_their_key(overrides, location):
    with pytest.raises(ParseError, match=f"^{re.escape(location)}: "):
        run_experiment(_tiny_plan(**overrides))


def test_plan_must_be_an_object():
    with pytest.raises(ParseError, match="plan: a plan must be a JSON object"):
        plan_from_dict([1, 2])


@pytest.mark.parametrize("closed, message", [
    ([0.5], "closed edge index 0.5 is not an integer"),
    ([0, "a"], "closed edge index 'a' is not an integer"),
    ([True], "closed edge index True is not an integer"),
    (3, "forest.closed_edges: expected a list of edge indices, got 3"),
])
def test_plan_rejects_mis_typed_closed_edges(closed, message):
    plan = _tiny_plan(forest={"closed_edges": closed})
    with pytest.raises((ParseError, StructureError), match=message):
        run_experiment(plan)


def test_analytic_sentinel_recovers_exactly():
    plan = _tiny_plan(sample_counts=["inf"], taus=[1e-6], trials=2)
    result = run_experiment(plan)
    assert result.failures == 0
    for row in result.rows:
        assert row["mean_error"] == 0.0
        assert row["std_error"] == 0.0


def test_experiment_rows_cover_grid_points_in_order():
    plan = _tiny_plan(sample_counts=[50, 100], taus=[0.2, 0.1], trials=2)
    result = run_experiment(plan)
    got = [(row["m"], row["tau"]) for row in result.rows]
    assert got == [(50, 0.2), (50, 0.1), (100, 0.2), (100, 0.1)]
    assert all(row["trials"] == 2 for row in result.rows)


def test_experiment_csv_determinism(tmp_path):
    plan = _tiny_plan()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_error_csv(p1, run_experiment(plan))
    write_error_csv(p2, run_experiment(plan))
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_verbose_and_gnuplot_outputs(tmp_path):
    plan = _tiny_plan(trials=2)
    result = run_experiment(plan)
    csv_path = tmp_path / "out.csv"
    write_error_csv(csv_path, result)
    write_trial_csv(tmp_path / "out.trials.csv", result)
    write_gnuplot_script(tmp_path / "out.gnuplot", csv_path, result)
    header = csv_path.read_text().splitlines()[0]
    assert header == "grid,variant,m,tau,trials,mean_error,std_error"
    trials_lines = (tmp_path / "out.trials.csv").read_text().splitlines()
    assert trials_lines[0] == "grid,variant,m,tau,trial,error,note"
    assert len(trials_lines) == 1 + 2 * 2 * 1  # trials x counts x taus
    assert "plot" in (tmp_path / "out.gnuplot").read_text()


def test_experiment_timing_column_is_opt_in(tmp_path):
    plan = _tiny_plan(trials=1, sample_counts=[20])
    result = run_experiment(plan, include_timing=True)
    path = tmp_path / "t.csv"
    write_error_csv(path, result)
    assert path.read_text().splitlines()[0].endswith(",seconds")


def test_experiment_generator_grid_and_forest_overrides():
    plan = _tiny_plan(grid={"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2}},
                      sample_counts=[40], trials=2)
    result = run_experiment(plan)
    assert result.failures == 0
    plan2 = _tiny_plan(grid={"generator": {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2}},
                       forest={"random_seed": 4}, sample_counts=[40], trials=1)
    assert run_experiment(plan2).failures == 0


def test_distflow_engine_simulation_close_to_lc():
    grid, forest = chain_grid(4, seed=6)
    model = default_model(forest)
    lc = simulate_voltage(forest, model, 20, seed=9, engine="lc")
    df = simulate_voltage(forest, model, 20, seed=9, engine="distflow")
    assert df.theta is None
    # same seed draws the same injections; the engines differ only by losses
    gap = np.max(np.abs(df.eps - lc.eps))
    assert 0 < gap < 1e-3


def test_analytic_sentinel_requires_lc_engine():
    plan = _tiny_plan(sample_counts=["inf"], trials=1, engine="distflow")
    result = run_experiment(plan)
    assert result.failures == plan.trials
    assert math.isnan(result.rows[0]["mean_error"])


def test_experiment_seed_falls_back_to_env(monkeypatch, tmp_path):
    plan = _tiny_plan(seed=None, sample_counts=[30], trials=2)
    monkeypatch.setenv("GRIDTOP_SEED", "123")
    r1 = run_experiment(plan)
    r2 = run_experiment(plan)
    monkeypatch.setenv("GRIDTOP_SEED", "124")
    r3 = run_experiment(plan)
    assert r1.rows == r2.rows
    assert r1.rows != r3.rows
