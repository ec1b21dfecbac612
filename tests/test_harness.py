"""Grid files, generators, bundled fixtures, and the experiment driver."""

import copy
import csv
import io
import json
import math
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError, GridTopError, ParseError, StructureError
from gridtop.fixtures import fixture_path, load_fixture
from gridtop.grid import LOAD, SUBSTATION, ForestConfig, GridGraph
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
from gridtop.harness import gridfile
from gridtop.harness.experiment import ExperimentPlan, write_gnuplot_script, write_trial_csv
from gridtop.harness.gridfile import _parse_samples_checked, _parse_samples_plain
from gridtop.learner import LearnerConfig, reconstruct
from gridtop.moments import analytic_moment_set, default_model, model_from_dict
from gridtop.powerflow import VoltageSamples

from conftest import chain_grid, model_from_covariances, scaled_model_doc


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
    with pytest.raises(ParseError, match=r"^nodes\[1\]\.id: expected an integer, got True$"):
        parse_grid(doc3)
    doc4 = json.loads(json.dumps(MINIMAL))
    doc4["edges"][0].update({"from": True, "to": 0})
    with pytest.raises(ParseError, match=r"^edges\[0\]\.from: expected an integer, got True$"):
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


def test_a_grid_file_that_holds_no_object_is_refused(tmp_path):
    for text in ("[1, 2]", '"grid"', "5", "null"):
        path = tmp_path / "not_an_object.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: top-level document must be an object$"):
            parse_grid(path)


# -- the bulk grid pass against the entry-by-entry walk --------------------------


class _Raw(str):
    """A JSON token, written as it is."""


class _Obj(list):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


def _dump(value) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, dict):
        value = _Obj(value.items())
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _walk(source):
    """``parse_grid`` as the entry-by-entry walk and the per-line loop of
    ``GridGraph`` decide it, with no bulk check."""
    doc = source if isinstance(source, dict) else gridfile._json_document(source, "<string>")
    with mock.patch.object(GridGraph, "_lines_hold", return_value=False):
        nodes, edges, name, closed = gridfile._walked_entries(doc, "")
        grid = GridGraph(nodes=nodes, edges=edges, name=name)
        return grid, None if closed is None else ForestConfig.from_closed_edges(grid, closed)


def _grid_outcome(parse, source):
    """The grid and forest ``parse`` gives, with the types of every value and
    the bits of every impedance, or the type and text of what it raises."""
    try:
        grid, forest = parse(source)
    except Exception as exc:  # noqa: BLE001 - both paths must raise alike, whatever they raise
        return type(exc), str(exc)
    values = [(type(n.id), type(n.kind)) for n in grid.nodes]
    values += [(type(e.u), type(e.v), type(e.r), type(e.x), type(e.switchable)) for e in grid.edges]
    bits = np.array([[e.r, e.x] for e in grid.edges], dtype=float).reshape(-1, 2).view(np.int64).tolist()
    return grid, forest, None if forest is None else forest.closed_edges, type(grid.name), values, bits


def _assert_both_paths_agree(source):
    want = _grid_outcome(_walk, source)
    assert _grid_outcome(parse_grid, source) == want
    return want


def _bulk_verdict(source) -> str:
    """Which way ``parse_grid`` takes ``source``: the bulk pass or the walk."""
    try:
        doc = source if isinstance(source, dict) else orjson.loads(source)
    except orjson.JSONDecodeError:
        return "orjson refuses"
    return "walk" if gridfile._plain_entries(doc) is None else "bulk pass"


_DIGITS = st.text("0123456789", min_size=17, max_size=25)
# Impedances: positive floats, 17-25-digit decimals, subnormals and integers.
_IMPEDANCES = st.one_of(
    st.floats(1e-3, 1.0),
    _DIGITS.map(lambda d: _Raw(f"0.{d}")),
    st.tuples(_DIGITS, st.integers(-324, 3)).map(lambda de: _Raw(f"{de[0][0]}.{de[0][1:]}e{de[1]}")),
    st.sampled_from(["4.9e-324", "2.2250738585072009e-308", "1", "2", "123456789012345678901234567"]).map(_Raw),
)
_ID_TOKENS = ["true", "false", "1.0", "-0", "0", "-0.0", "18446744073709551616", "9223372036854775808",
              "-9223372036854775809", "null", '"1"', "[]", "{}"]
_NUMBER_TOKENS = ["0", "-0", "0.0", "-0.0", "-0.1", "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
                  "1e200", "1" + "0" * 400, "true", '"0.1"', "null", "[0.1]"]
_KIND_TOKENS = ['"load"', '"substation"', '"Load"', '"sub"', "null", "1", '["load"]']
_FLAG_TOKENS = ["true", "false", "0", "1", "null", '"true"']
_NAME_TOKENS = ['"x"', "5", "null", '"\\ud800"', '"\\u00e9"', "[]"]
_ENTRY_TOKENS = ["[]", "1", "null", '"node"', "[0, 1]"]
_TOKENS = {"id": _ID_TOKENS, "from": _ID_TOKENS, "to": _ID_TOKENS, "r": _NUMBER_TOKENS, "x": _NUMBER_TOKENS,
           "kind": _KIND_TOKENS, "closed": _FLAG_TOKENS, "switchable": _FLAG_TOKENS, "name": _NAME_TOKENS}


@st.composite
def _grid_documents(draw):
    """A small grid document with its forest declared or not, in the form
    ``write_grid`` writes, over node ids drawn from a wide range."""
    n_subs, n_loads = draw(st.integers(1, 2)), draw(st.integers(1, 5))
    ids = draw(st.lists(st.one_of(st.integers(-3, 40), st.integers(-2**70, 2**70)), min_size=n_subs + n_loads,
                        max_size=n_subs + n_loads, unique=True))
    nodes = [_Obj([("id", nid), ("kind", SUBSTATION if i < n_subs else LOAD)]) for i, nid in enumerate(ids)]
    pairs = [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(n_subs, len(ids))]
    closed = [True] * len(pairs)
    if n_subs == 2:  # an open line between the substations keeps the grid connected
        pairs.append((ids[0], ids[1]))
        closed.append(False)
    for u, v in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3)):
        if u != v and (u, v) not in pairs and (v, u) not in pairs:
            pairs.append((u, v))
            closed.append(False)
    declares = draw(st.booleans())
    edges = []
    for (u, v), shut in zip(pairs, closed):
        entry = _Obj([("from", u), ("to", v), ("r", draw(_IMPEDANCES)), ("x", draw(_IMPEDANCES))])
        if declares:
            entry.append(("closed", shut))
        if draw(st.booleans()):
            entry.append(("switchable", draw(st.booleans())))
        edges.append(_Obj(draw(st.permutations(entry))))
    doc = _Obj([("nodes", nodes), ("edges", edges)])
    if draw(st.booleans()):
        doc.insert(0, ("meta", _Obj([("name", "g")] if draw(st.booleans()) else [])))
    return doc


def _entries(doc, key):
    return next(value for name, value in doc if name == key)


@st.composite
def _mutated_grid_documents(draw):
    """A grid document with up to three mutations: a value replaced by a
    mis-typed, non-finite, out-of-range or other token, a key dropped,
    repeated or misspelt, an entry that is not an object, a bad kind, a
    self-loop or a repeated line."""
    doc = draw(_grid_documents())
    nodes, edges = _entries(doc, "nodes"), _entries(doc, "edges")
    for _ in range(draw(st.integers(0, 3))):
        entries = draw(st.sampled_from([nodes, edges]))
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        how = draw(st.sampled_from(["set", "drop", "repeat", "misspell", "not an object", "self-loop", "copy line",
                                    "top", "name"]))
        if how == "top":
            doc.insert(draw(st.integers(0, len(doc))),
                       draw(st.sampled_from([("mta", 1), ("meta", _Raw("[]")), ("nodes", _Raw("{}"))])))
        elif how == "name":
            doc.insert(0, ("meta", _Obj([("name", _Raw(draw(st.sampled_from(_NAME_TOKENS))))])))
        elif how == "not an object":
            entries[i] = _Raw(draw(st.sampled_from(_ENTRY_TOKENS)))
        elif not isinstance(entry, _Obj) or not entry:
            continue
        elif how == "self-loop" and entries is edges:
            entry.append(("to", dict(entry).get("from", 0)))
        elif how == "copy line" and entries is edges:
            line = _Obj(entry)
            if draw(st.booleans()):
                line = _Obj(({"from": "to", "to": "from"}.get(k, k), v) for k, v in line)
            edges.insert(draw(st.integers(0, len(edges))), line)
        else:
            j = draw(st.integers(0, len(entry) - 1))
            key = entry[j][0]
            token = _Raw(draw(st.sampled_from(_TOKENS.get(key, _FLAG_TOKENS))))
            if how == "set":
                entry[j] = (key, token)
            elif how == "drop":
                del entry[j]
            elif how == "repeat":
                entry.insert(draw(st.sampled_from([j, j + 1, len(entry)])), (key, token))
            else:
                entry[j] = (key[:-1] or "k", entry[j][1])
    return _dump(doc)


@settings(max_examples=400, deadline=None)
@given(_mutated_grid_documents())
def test_the_bulk_grid_pass_agrees_with_the_walk(text):
    """Text and the dict ``json`` reads from it give the same grid and forest
    (ids and flags of the same types, impedances with the same bits), or the
    same exception and text, through the bulk pass and through the walk."""
    outcome = _assert_both_paths_agree(text)
    event(f"text: {_bulk_verdict(text)}, {'grid' if len(outcome) > 2 else outcome[0].__name__}")
    try:
        doc = json.loads(text)
    except ValueError:
        return
    outcome = _assert_both_paths_agree(doc)
    event(f"dict: {_bulk_verdict(doc)}, {'grid' if len(outcome) > 2 else outcome[0].__name__}")


def test_every_token_in_every_slot_agrees_with_the_walk():
    tokens = sorted(set(_ID_TOKENS + _NUMBER_TOKENS + _KIND_TOKENS + _FLAG_TOKENS + _NAME_TOKENS + _ENTRY_TOKENS))
    slots = [("nodes", 1, key) for key in ("id", "kind")] + [("meta", "name")]
    slots += [("edges", 1, key) for key in ("from", "to", "r", "x", "closed", "switchable")]
    for path in slots:
        for token in tokens:
            doc = copy.deepcopy(_SWEEP_GRID)
            inner = doc
            for key in path[:-1]:
                inner = inner[key]
            inner[path[-1]] = _Raw(token)
            text = _dump(doc)
            _assert_both_paths_agree(text)
            _assert_both_paths_agree(json.loads(text))


@pytest.mark.parametrize("path, value", [
    (("nodes", 1, "id"), np.int64(1)), (("nodes", 1, "id"), 1.0), (("edges", 0, "r"), float("nan")),
    (("edges", 0, "x"), float("inf")), (("edges", 0, "r"), np.float64(0.1)), (("edges", 0, "r"), 10**400),
    (("edges", 0, "r"), 1), (("edges", 0, "closed"), np.bool_(True)), (("nodes", 1, "kind"), "Load"),
    (("meta", "name"), None),
])
def test_a_dict_source_agrees_with_the_walk_on_values_no_json_text_holds(path, value):
    doc = copy.deepcopy(MINIMAL)
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    _assert_both_paths_agree(doc)


def test_a_dict_source_may_list_its_entries_in_tuples():
    tuples = dict(MINIMAL, nodes=tuple(MINIMAL["nodes"]), edges=tuple(MINIMAL["edges"]))
    grid, forest = _assert_both_paths_agree(tuples)[:2]
    assert (grid, forest) == parse_grid(MINIMAL)


@pytest.mark.parametrize("name", ["bus_13_3", "bus_29_1", "bus_83_11"])
def test_fixtures_take_the_bulk_pass_and_agree_with_the_walk(name, monkeypatch):
    text = fixture_path(name).read_text()
    want = _assert_both_paths_agree(text)
    assert want[1] is not None
    monkeypatch.setattr(gridfile, "_walked_entries", None)
    monkeypatch.setattr(GridGraph, "_check_lines", None)
    assert parse_grid(text)[0] == want[0]


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


@pytest.mark.parametrize("n_loads", [2 ** 63, 10 ** 400])
def test_generator_refuses_more_loads_than_it_can_hold(n_loads):
    with pytest.raises(DomainError, match=f"^cannot hold a grid of {n_loads} loads and 1 substations$"):
        generate_random_grid(n_loads, 1, 0)


def test_generator_every_tree_gets_a_load():
    grid, forest = generate_random_grid(11, 4, 8, n_tie_lines=3, seed=1)
    for k in range(forest.n_trees):
        members = [n for n, t in forest.tree_of.items() if t == k]
        assert any(n not in grid.substation_ids for n in members)


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


def _written_by_csv_writer(samples):
    """The bytes ``csv.writer`` writes for the ids and the ``repr`` of each
    value: the reference ``write_samples`` must match."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow([str(nid) for nid in samples.nodes])
    for row in samples.eps.tolist():
        writer.writerow([repr(v) for v in row])
    return want.getvalue().encode()


def _written(tmp_path, samples):
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    return path.read_bytes()


def test_write_samples_writes_what_a_csv_writer_writes(tmp_path):
    rng = np.random.default_rng(4)
    special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 0.0, 1e-4, -9.99e-5]
    eps = np.vstack([rng.normal(0.0, 0.02, (5, 8)), special])
    samples = VoltageSamples(nodes=(7, 3, 12, 1, 9, 4, 30, 2), eps=eps)
    assert _written(tmp_path, samples) == _written_by_csv_writer(samples)


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_write_samples_refuses_a_non_finite_value(tmp_path, cell):
    eps = np.full((7, 8), 0.01)
    eps[5, 2] = cell
    samples = VoltageSamples(nodes=(7, 3, 12, 1, 9, 4, 30, 2), eps=eps)
    path = tmp_path / "samples.csv"
    with pytest.raises(GridTopError, match=re.escape(f"non-finite value {cell!r} in row 5 at node 12")):
        write_samples(path, samples)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 8), (3, 0)])
def test_write_samples_refuses_an_empty_batch(tmp_path, shape):
    # A header-only file is one read_samples refuses; the refusal comes
    # before the file is opened, so no file is made and none is truncated.
    samples = VoltageSamples(nodes=(7, 3, 12, 1, 9, 4, 30, 2)[:shape[1]], eps=np.zeros(shape))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("1,2\n0.1,0.2\n")
    for path in (new, old):
        with pytest.raises(GridTopError, match=re.escape(f"cannot write sample file {path}: the batch is empty "
                                                         f"(eps has shape {shape})")):
            write_samples(path, samples)
    assert not new.exists()
    assert old.read_text() == "1,2\n0.1,0.2\n"


def _neighbours(value, count):
    """``value`` and the ``count`` floats either side of it."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    return below + above[1:]


def _spread_values(rng, shape):
    """Values of both signs from 5e-324 to 1e308, exact zeros, and the float
    neighbours of 1e-4 and 1e16, where ``repr`` changes notation.  Most rows
    keep their magnitudes within [1e-4, 1e16), the first one always, and the
    rest span the full range."""
    wide = rng.random((shape[0], 1)) < 0.2
    pick = rng.random(shape) < 0.1
    wide[0] = pick[0] = False
    magnitudes = 10.0 ** np.where(wide, rng.uniform(-323.5, 308.2, shape), rng.uniform(-4, 16, shape))
    picked = rng.choice(_neighbours(1e-4, 40) + _neighbours(1e16, 40) + [0.0, 5e-324], shape)
    values = np.where(pick, picked, magnitudes)
    return np.where(rng.random(shape) < 0.5, -values, values)


@pytest.mark.parametrize("shape", [(1, 9), (300, 1), (400, 7)])
def test_write_samples_matches_the_csv_writer_on_spread_values(tmp_path, shape):
    rng = np.random.default_rng(11)
    eps = _spread_values(rng, shape)
    for batch in (eps, np.asfortranarray(eps), np.vstack([eps, eps])[::2], eps[:, ::-1]):
        samples = VoltageSamples(nodes=tuple(range(shape[1])), eps=batch)
        assert _written(tmp_path, samples) == _written_by_csv_writer(samples)
        back = read_samples(tmp_path / "samples.csv")
        assert back.eps.tobytes() == np.ascontiguousarray(batch).tobytes()


@pytest.mark.parametrize("rows, size", [(1, 3), (2, 5), (3, 64)])
def test_sample_files_hold_across_block_edges(tmp_path, monkeypatch, rows, size):
    # The round trip and the csv.writer bytes, with files written a few rows
    # and read a few bytes at a time, so that exact zeros, repr-written rows
    # and every other kind of row fall on either side of a block edge.
    monkeypatch.setattr(gridfile, "_WRITE_ROWS", rows)
    monkeypatch.setattr(gridfile, "_READ_BYTES", size)
    test_sample_csv_round_trip_is_exact(tmp_path)
    test_write_samples_writes_what_a_csv_writer_writes(tmp_path)
    for shape in [(1, 9), (300, 1), (400, 7)]:
        test_write_samples_matches_the_csv_writer_on_spread_values(tmp_path, shape)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_file_io_holds_one_block_of_text_at_a_time(tmp_path):
    # 3200 samples of 83 loads: a 2.0 MiB array and a 5.6 MiB file.  Each
    # call may hold the array and a block of text, not the file's text.
    grid, forest = load_fixture("bus_83_11")
    samples = simulate_voltage(forest, default_model(forest), 3200, seed=1)
    path = tmp_path / "samples.csv"
    assert _traced_peak(lambda: write_samples(path, samples)) <= 2 * 2**20
    assert _traced_peak(lambda: read_samples(path)) <= 2.2 * samples.eps.nbytes + 2**20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("text, want", [("1,2\r\n0.5,-0\r\n", (0.5, -0.0)),
                                        ("1,2\n0.5\n", "expected 2 columns, got 1")])
def test_read_samples_reads_a_pipe_once(tmp_path, text, want):
    # A pipe cannot be read twice: read_samples must not open it again for
    # its second pass or for the checked parser, where it would wait forever.
    path = tmp_path / "samples.pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), kwargs={"newline": ""}, daemon=True)
    writer.start()
    got = []
    reader = threading.Thread(target=lambda: got.append(_outcome(lambda: read_samples(path))), daemon=True)
    reader.start()
    reader.join(timeout=30)
    assert got, "read_samples did not return"
    _read_as(got[0], want)


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
    bad = type(samples)(nodes=samples.nodes, eps=eps)
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
    bad = MomentSet(nodes=nodes, sigma_eps=sigma)
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


def test_voltage_samples_reject_mis_shaped_eps():
    with pytest.raises(DomainError, match=r"eps must have shape \(m, 2\)"):
        VoltageSamples(nodes=(1, 2), eps=np.zeros(2))


def test_moment_set_rejects_mis_shaped_matrices():
    from gridtop.moments import MomentSet

    with pytest.raises(DomainError, match="sigma_eps"):
        MomentSet(nodes=(1, 2, 3), sigma_eps=np.eye(2))


def test_voltage_samples_given_as_lists_are_learned_like_arrays():
    from gridtop.moments import empirical_moments

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 200, seed=3)
    listed = VoltageSamples(nodes=samples.nodes, eps=samples.eps.tolist())
    assert isinstance(listed.eps, np.ndarray)
    assert np.array_equal(empirical_moments(listed).sigma_eps, empirical_moments(samples).sigma_eps)
    config = LearnerConfig(tau=0.05)
    assert (reconstruct(listed, model, grid, config).learned_edges
            == reconstruct(samples, model, grid, config).learned_edges)


@pytest.mark.parametrize("name, value", [("eps", [[0.0, 1.0], [2.0]]), ("eps", [["a", "b"]]),
                                         ("eps", [["1", "0"]]), ("eps", np.array([["1", "0"]])),
                                         ("eps", np.array([[1.0, "0"]], dtype=object))],
                         ids=["eps-value0", "eps-value1", "eps-value3", "eps-value4", "eps-value5"])
def test_voltage_samples_reject_entries_they_cannot_hold_as_floats(name, value):
    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        VoltageSamples(nodes=(1, 2), **{name: value})


def test_containers_keep_float_arrays_without_a_copy():
    from gridtop.moments import MomentSet

    eps, sigma = np.zeros((3, 2)), np.eye(2)
    assert VoltageSamples(nodes=(1, 2), eps=eps).eps is eps
    assert MomentSet(nodes=(1, 2), sigma_eps=sigma).sigma_eps is sigma


def test_moment_set_given_as_lists_is_learned_like_arrays():
    from gridtop.moments import MomentSet, analytic_moment_set

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    exact = analytic_moment_set(forest, model)
    plain = MomentSet(nodes=exact.nodes, sigma_eps=exact.sigma_eps)
    listed = MomentSet(nodes=exact.nodes, sigma_eps=exact.sigma_eps.tolist())
    config = LearnerConfig(tau=1e-6)
    assert reconstruct(listed, model, grid, config).trace == reconstruct(plain, model, grid, config).trace


@pytest.mark.parametrize("name", ["sigma_eps"])
def test_moment_set_rejects_entries_it_cannot_hold_as_floats(name):
    from gridtop.moments import MomentSet

    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        MomentSet(nodes=(1, 2), **{name: [["a", "0"], ["0", "1"]]})


@pytest.mark.parametrize("name", ["sigma_eps"])
@pytest.mark.parametrize("text", [[["1", "0"], ["0", "1"]], np.array([["1", "0"], ["0", "1"]]),
                                  np.array([[1.0, "0"], [0.0, 1.0]], dtype=object)])
def test_moment_set_refuses_numeric_strings(name, text):
    from gridtop.moments import MomentSet

    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        MomentSet(nodes=(1, 2), **{name: text})


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
        bad = MomentSet(nodes=nodes, sigma_eps=sigma)
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


@pytest.mark.parametrize("nodes, shown", [("abc", "node id 'a' is not an integer"),
                                          ((True, 2, 3), "node id True is not an integer")])
def test_injection_model_rejects_a_node_id_that_is_not_an_integer(nodes, shown):
    from gridtop.errors import ModelError

    zeros = np.zeros((3, 3))
    with pytest.raises(ModelError, match=re.escape(shown)):
        model_from_covariances(nodes, -np.ones(3), -np.ones(3), zeros, zeros, zeros)
    assert model_from_covariances(np.arange(1, 4), -np.ones(3), -np.ones(3), zeros, zeros, zeros).nodes == (1, 2, 3)


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
# ASCII and Unicode whitespace (the kinds that ``float`` and JSON strip alike
# and those only ``float`` strips), line separators that ``str.splitlines``
# would split on, a Unicode digit, non-finite values, blank and
# whitespace-only lines, a trailing comma, JSON syntax that ``float`` refuses
# (brackets, braces, quotes, literals), carriage returns, which JSON skips and
# ``csv`` ends a line at, and the integer zeros, as JSON reads -0 as 0.
_MUTATIONS = list("0123456789.e+-_,\"#") + [
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\u0663",
    "nan", "inf", "-inf", "1e400", "\n", "\n\n", "\n \n", "\n\t\n", ",\n",
    "[", "]", "],[", "{}", '"', "true", "false", "null", "\r", "\r\n", "-0", "0",
]


# Exact zeros as a file may spell them; JSON reads the integer -0 as 0.
_ZEROS = ["0", "-0", "0.0", "-0.0", "0e0"]


def _outcome(parse):
    try:
        samples = parse()
    except ParseError as exc:
        return "error", str(exc)
    return "ok", samples.nodes, samples.eps.shape, samples.eps.tobytes()


def _read_both_ways(path, text):
    """read_samples' outcome on ``text``, after checking that it is the
    checked parser's: the same ParseError, or the same ids and array bytes.
    The one-pass parse is also run on the bytes of ``text`` in memory: it
    accepts only what the checked parser reads the same from the file, where
    "\\r" and "\\r\\n" read as "\\n"."""
    path.write_text(text, newline="")
    fast = _outcome(lambda: read_samples(path))
    checked = _outcome(lambda: _parse_samples_checked(path.read_text(), str(path)))
    assert fast == checked
    if (plain := _parse_samples_plain(io.BytesIO(text.encode()))) is not None:
        assert _outcome(lambda: plain) == checked
    return fast


def _mutated_sample_text(n, m, data):
    """A sample file of n columns and m rows of ``repr`` cells and spelt
    zeros, with up to three mutations."""
    ids = data.draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n, unique=True))
    cells = st.floats().map(repr) | st.sampled_from(_ZEROS)
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
    return text


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(0, 3), data=st.data())
def test_read_samples_agrees_with_the_checked_parser(tmp_path_factory, n, m, data):
    _read_both_ways(tmp_path_factory.mktemp("samples") / "s.csv", _mutated_sample_text(n, m, data))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(0, 3), size=st.integers(1, 48), data=st.data())
def test_read_samples_agrees_with_the_checked_parser_across_block_edges(tmp_path_factory, n, m, size, data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridfile, "_READ_BYTES", size)
        _read_both_ways(tmp_path_factory.mktemp("samples") / "s.csv", _mutated_sample_text(n, m, data))


_FALLBACK_CASES = [
    ("7\n0.5\x0c0.25\n", "s.csv:2: non-numeric sample value"),  # one line to csv, two to splitlines
    ("1\n0.5\u20280.25\n", "s.csv:2: non-numeric sample value"),
    ("1,2\n\x1c0.5,0.25\n", "s.csv:2: non-numeric sample value"),
    ('1,2\n"0.5",0.25\n', (0.5, 0.25)),
    ('"1",2\n0.5,0.25\n', (0.5, 0.25)),
    ("1\n1_0\n", (10.0,)),
    ("1\n\u0663\n", (3.0,)),
    ("1,2\n0.1,0.2,0.3\n0.4,0.5,0.6\n", "s.csv:2: expected 2 columns, got 3"),
    ("1,2\n", "s.csv: sample file has a header but no samples"),
    ("1,2\n0.1,0.2\n\n0.3,1e400\n", "s.csv:4: non-finite sample value"),
    # A file reads "\r" as "\n"; JSON skips it on the text, where csv ends a line.
    ("1,2\n1.0,\r2.0\n", "s.csv:2: non-numeric sample value"),
    ("1,\r2\n0.5,0.25\n", "s.csv:1: header row must hold integer node ids"),
    ("1\n-0\n", (-0.0,)),  # JSON reads -0 as 0; the row is read again with float
    ("1\n1.0],[2.0\n", "s.csv:2: expected 1 columns, got 2"),  # JSON's row separator
    ("1,2\n1.0],[2.0\n", "s.csv:2: non-numeric sample value"),
    ("1\ntrue\n", "s.csv:2: non-numeric sample value"),
    ("1,2\n0.3\n", "s.csv:2: expected 2 columns, got 1"),  # numpy broadcasts a one-cell row
]


def _read_as(got, want):
    if isinstance(want, str):
        assert got[0] == "error" and got[1].endswith(want)
    else:
        assert got[0] == "ok" and got[3] == np.array(want).tobytes()


@pytest.mark.parametrize("text, want", _FALLBACK_CASES)
def test_read_samples_falls_back_to_the_checked_parser(tmp_path, text, want):
    _read_as(_read_both_ways(tmp_path / "s.csv", text), want)


@pytest.mark.parametrize("text, want", _FALLBACK_CASES)
def test_read_samples_falls_back_alike_at_every_block_size(tmp_path, monkeypatch, text, want):
    for size in range(1, len(text.encode()) + 2):
        monkeypatch.setattr(gridfile, "_READ_BYTES", size)
        _read_as(_read_both_ways(tmp_path / "s.csv", text), want)


# One row of each kind that a block edge may cut: (the row's bytes, whether
# the one-pass parse keeps the file, the error it ends in or None).
_EDGE_ROWS = {
    "exact zero": (b"-0,0.0", True, None),
    "repr row": (b"3e-05,-1.5e-07", True, None),
    "blank line": (b"", False, None),
    "ragged row": (b"0.5", False, "s.csv:{line}: expected 2 columns, got 1"),
    "json-only": (b"0.5,true", False, "s.csv:{line}: non-numeric sample value"),
    "invalid utf-8": (b"0.5,\xff0.25", False, "s.csv: cannot read sample file: not UTF-8 text"),
}


@pytest.mark.parametrize("kind", _EDGE_ROWS)
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("breaks", [1, 0, 3], ids=["newline", "none", "blank-lines"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_read_samples_keeps_its_verdict_at_every_block_size(tmp_path, monkeypatch, kind, at, breaks, newline):
    # A row of each kind at the first, a middle or the last row, lines
    # ending in "\n" or "\r\n", the file ending in one, no or three line
    # breaks, read at every block size up to one past the file: the outcome
    # is the checked parser's on the whole file, and the one-pass parse
    # keeps the file exactly when it always did.
    line, kept, error = _EDGE_ROWS[kind]
    rows = [b"0.125,-0.5", b"2.5e-3,1e-2", b"-0.75,0.0625", b"1.5,-2.25"]
    kept = kept or (not line and at == len(rows))  # a blank last line is a trailing one
    data = newline.join([b"4,9"] + rows[:at] + [line] + rows[at:]) + newline * breaks
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    try:
        want = _outcome(lambda: _parse_samples_checked(gridfile._read_text(path, "sample file"), str(path)))
    except ParseError as exc:
        want = ("error", str(exc))
    if error is None:
        assert want[0] == "ok"
    else:
        assert want[0] == "error" and error.format(line=at + 2) in want[1]
    for size in range(1, len(data) + 2):
        monkeypatch.setattr(gridfile, "_READ_BYTES", size)
        assert _outcome(lambda: read_samples(path)) == want
        with open(path, "rb") as raw:
            assert (_parse_samples_plain(raw) is not None) == kept


@pytest.mark.parametrize("zero", _ZEROS + [" -0\t"])
def test_an_exact_zero_keeps_the_one_pass_parse(tmp_path, monkeypatch, zero):
    # Only the rows that hold a zero are read again, with float; the file
    # does not go to the checked parser, and gets its bits and signs.
    text = f"4,1,9\n0.5,{zero},-0.25\n1e-3,2.5,{zero}\n0.125,0.5,0.75\n"
    path = tmp_path / "s.csv"
    path.write_text(text)
    want = _parse_samples_checked(text, str(path))

    def refuse(*args):
        raise AssertionError("the checked parser ran")

    monkeypatch.setattr(gridfile, "_parse_samples_checked", refuse)
    got = read_samples(path)
    assert got.nodes == want.nodes == (4, 1, 9)
    assert got.eps.tobytes() == want.eps.tobytes()


def test_a_written_sample_file_takes_the_one_pass_parse(tmp_path):
    grid, forest = load_fixture("bus_13_3")
    samples = simulate_voltage(forest, default_model(forest), 50, seed=2)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    with open(path, "rb") as raw:
        fast = _parse_samples_plain(raw)
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


@pytest.mark.parametrize("key, value, message", [
    ("taus", [0.05, 2.0], "tau must lie in (0, 1), got 2.0"), ("taus", [0.0], "tau must lie in (0, 1), got 0.0"),
    ("variant", 7, "variant must be one of ['lc', 'dc'], got 7"), ("variant", "ac", "got 'ac'"),
])
def test_plan_refuses_a_tau_or_variant_the_learner_refuses(key, value, message):
    # Refused when the plan is built, before a grid is read or a trial runs.
    with pytest.raises(DomainError, match=re.escape(message)):
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


_GENERATOR = {"n_loads": 6, "k_subs": 1, "n_extra_lines": 2}


@pytest.mark.parametrize("overrides, location", [
    ({"name": 5}, "name"),
    ({"grid": {"generator": dict(_GENERATOR, name=5)}}, "grid.generator.name"),
    ({"grid": {"generator": dict(_GENERATOR, r_range=[0.1])}}, "r_range"),
    ({"grid": {"generator": dict(_GENERATOR, x_range=[0.3, 0.1])}}, "x_range"),
    ({"grid": {"generator": dict(_GENERATOR, seeds=1)}}, "grid.generator.seeds"),
])
def test_plan_refuses_a_name_that_is_not_text_and_a_bad_generator_option(overrides, location):
    with pytest.raises(GridTopError, match=re.escape(location)):
        run_experiment(_tiny_plan(trials=1, sample_counts=[20], **overrides))


@pytest.mark.parametrize("meta, location", [(5, "meta"), ({"name": 5}, "meta.name")])
def test_grid_meta_must_be_an_object_with_a_text_name(meta, location):
    with pytest.raises(ParseError, match=f"^{re.escape(location)}: expected "):
        parse_grid(dict(MINIMAL, meta=meta))


# Every slot a document value can sit in, with the document it is run through.
_SWEEP_PLAN = {"grid": "bus_13_3", "sample_counts": [20], "taus": [0.1], "trials": 1, "seed": 1}
_SWEEP_GRID = {
    "meta": {"name": "three"},
    "nodes": [{"id": 0, "kind": "substation"}, {"id": 1, "kind": "load"}, {"id": 2, "kind": "load"}],
    "edges": [{"from": 0, "to": 1, "r": 0.1, "x": 0.2, "closed": True},
              {"from": 1, "to": 2, "r": 0.1, "x": 0.2, "closed": True, "switchable": False}],
}
_SWEEP_POOL = [None, True, "x", 1.5, -1, 0, [], {}, [1], [0.1], {"a": 1}, ["x", "y"], [0.3, 0.1], ["inf"]]


def _with(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``, a list of keys and indices."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


_SWEEP_SLOTS = (
    [("plan", (key,)) for key in ("grid", "sample_counts", "taus", "trials", "seed", "model", "forest",
                                  "variant", "engine", "augment_open_lines", "name")]
    + [("generator", (key,)) for key in ("n_loads", "k_subs", "n_extra_lines", "n_tie_lines", "seed",
                                         "r_range", "x_range", "name")]
    + [("forest", (key,)) for key in ("random_seed", "closed_edges")]
    + [("model", (key,)) for key in ("kind", "mu_p", "sigma_ratio", "rho", "q_alpha", "q_noise_ratio")]
    + [("grid", (key,)) for key in ("meta", "nodes", "edges")]
    + [("grid", ("nodes", 1, key)) for key in ("id", "kind")]
    + [("grid", ("edges", 1, key)) for key in ("from", "to", "r", "x", "closed", "switchable")]
    # keys no reader takes, beside known ones
    + [("grid", path) for path in (("mta",), ("meta", "nmae"), ("nodes", 1, "knd"), ("edges", 1, "swichable"))]
    + [("grid object", ("source",)), ("forest pair", ("random_seed",)), ("distflow plan", ("sample_counts",))]
)


@pytest.mark.parametrize("document, path", _SWEEP_SLOTS,
                         ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
def test_no_mis_typed_document_value_escapes_as_a_raw_exception(document, path):
    escaped = []
    for value in _SWEEP_POOL:
        try:
            if document == "grid":
                parse_grid(_with(_SWEEP_GRID, path, value))
                continue
            plan = {
                "plan": _with(_SWEEP_PLAN, path, value),
                "generator": dict(_SWEEP_PLAN, grid={"generator": _with(_GENERATOR, path, value)}),
                "forest": dict(_SWEEP_PLAN, forest=_with({}, path, value)),
                "model": dict(_SWEEP_PLAN, model=_with({}, path, value)),
                "grid object": dict(_SWEEP_PLAN, grid=_with({"generator": _GENERATOR}, path, value)),
                "forest pair": dict(_SWEEP_PLAN, forest=_with({"closed_edges": [0]}, path, value)),
                "distflow plan": dict(_with(_SWEEP_PLAN, path, value), engine="distflow"),
            }[document]
            run_experiment(plan_from_dict(plan))
        except GridTopError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escapes are what this test collects
            escaped.append((value, repr(exc)))
    assert escaped == []


@pytest.mark.parametrize("path, location", [
    (("mta",), "mta"), (("meta", "nmae"), "meta.nmae"), (("nodes", 1, "knd"), "nodes[1].knd"),
    (("edges", 1, "swichable"), "edges[1].swichable"),
])
def test_grid_refuses_a_key_it_would_ignore(path, location):
    with pytest.raises(ParseError, match=f"^{re.escape(location)}: unknown key"):
        parse_grid(_with(_SWEEP_GRID, path, True))


@pytest.mark.parametrize("overrides, message", [
    ({"forest": {"closed_edges": [0, 1], "random_seed": 7}}, "forest: a forest object takes exactly one"),
    ({"forest": {}}, "forest: a forest object takes exactly one"),
    ({"forest": {"random_sede": 7}}, "forest.random_sede: unknown key"),
    ({"grid": {"generator": _GENERATOR, "seed": 4}}, "grid.seed: unknown key"),
])
def test_plan_refuses_a_forest_or_grid_key_it_would_ignore(overrides, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        run_experiment(_tiny_plan(**overrides))


def test_an_integer_too_large_for_a_float_is_refused_at_its_key():
    with pytest.raises(ParseError, match=r"^sample_counts: expected"):
        _tiny_plan(sample_counts=[10**400])
    with pytest.raises(ParseError, match=r"^edges\[0\]\.r: expected a finite number"):
        parse_grid(_with(MINIMAL, ("edges", 0, "r"), 10**400))


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


@pytest.mark.parametrize("engine", ["lc", "distflow"])
def test_experiment_trials_match_a_trial_by_trial_loop(monkeypatch, engine):
    """The run's one sampler and its reused buffers give each trial the
    samples ``simulate_voltage`` gives it alone; a smaller draw follows a
    larger one in the same buffers."""
    from gridtop.harness import experiment

    seen = []

    def learn(data, *args, **kwargs):
        seen.append(data.eps.copy() if isinstance(data, VoltageSamples) else data.sigma_eps)
        return reconstruct(data, *args, **kwargs)

    monkeypatch.setattr(experiment, "reconstruct", learn)
    plan = _tiny_plan(sample_counts=[200, 20, 200, "inf"] if engine == "lc" else [200, 20, 200],
                      taus=[0.05, 0.2], engine=engine)
    result = run_experiment(plan)
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    want = []
    for pi, m in enumerate(plan.sample_counts):
        for ti, tau in enumerate(plan.taus):
            for trial in range(plan.trials):
                if math.isinf(m):
                    data = analytic_moment_set(forest, model)
                else:
                    seed = np.random.SeedSequence((plan.seed, pi * len(plan.taus) + ti, trial))
                    data = simulate_voltage(forest, model, int(m), seed, engine)
                assert np.array_equal(seen[len(want)], data.sigma_eps if math.isinf(m) else data.eps)
                error = reconstruct(data, model, grid, LearnerConfig(tau=tau), truth=forest).relative_error
                want.append({"grid": "bus_13_3", "variant": "lc", "m": m, "tau": tau, "trial": trial,
                             "error": error, "note": ""})
    assert list(result.trial_rows) == want


@pytest.mark.parametrize("engine, counts", [("lc", [20, 50, "inf"]), ("distflow", [20, 50]), ("lc", ["inf"])])
def test_experiment_factors_the_covariance_once_per_run(monkeypatch, engine, counts):
    factored = []

    def eigh(matrix):
        factored.append(matrix.shape)
        return real(matrix)

    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert run_experiment(_tiny_plan(sample_counts=counts, taus=[0.1, 0.2], trials=2, engine=engine)).failures == 0
    assert factored == ([(26, 26)] if 20 in counts else [])


def test_draws_and_solves_share_no_memory_from_call_to_call():
    from gridtop.moments import sample_injections

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    first, second = (sample_injections(model, 50, seed) for seed in (1, 2))
    for a in (first.p, first.q):
        for b in (second.p, second.q):
            assert not np.shares_memory(a, b)
    for engine in ("lc", "distflow"):
        first, second = (simulate_voltage(forest, model, 50, seed, engine) for seed in (1, 2))
        assert not np.shares_memory(first.eps, second.eps)
        assert not np.array_equal(first.eps, second.eps)


def test_reconstruct_keeps_no_reference_to_its_samples():
    import gc
    import weakref

    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    samples = simulate_voltage(forest, model, 50, 1)
    eps = weakref.ref(samples.eps)
    result = reconstruct(samples, model, grid, LearnerConfig(tau=0.1), truth=forest)
    del samples
    gc.collect()
    assert eps() is None and result.trace


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
    # same seed draws the same injections; the engines differ only by losses
    gap = np.max(np.abs(df.eps - lc.eps))
    assert 0 < gap < 1e-3


def test_analytic_sentinel_requires_lc_engine():
    # Refused when the plan is built, not once per "inf" trial.
    with pytest.raises(DomainError, match="the infinite-sample limit is defined for the lc engine only"):
        _tiny_plan(sample_counts=[50, "inf"], trials=1, engine="distflow")


def _order_plan(model_doc):
    return _tiny_plan(sample_counts=[1000, "inf"], taus=[0.05], trials=2, model=model_doc)


def test_an_experiment_reads_a_model_in_any_node_order_in_the_forest_order(tmp_path):
    grid, forest = load_fixture("bus_13_3")
    shuffled = [int(nid) for nid in np.random.default_rng(5).permutation(grid.load_ids)]
    written = []
    for order in (grid.load_ids, shuffled):
        result = run_experiment(_order_plan(scaled_model_doc(forest, order)))
        assert result.failures == 0
        write_error_csv(path := tmp_path / f"{len(written)}.csv", result)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_a_model_over_other_ids_is_refused_before_any_draw():
    grid, forest = load_fixture("bus_13_3")
    doc = scaled_model_doc(forest, grid.load_ids, shift=100)
    with pytest.raises(DomainError, match="model nodes do not match"):
        simulate_voltage(forest, model_from_dict(doc), 10, seed=1)
    with pytest.raises(DomainError, match="model nodes do not match"):
        run_experiment(_order_plan(doc))


def test_a_model_over_other_ids_is_refused_naming_them():
    grid, forest = load_fixture("bus_13_3")
    model = model_from_dict(scaled_model_doc(forest, grid.load_ids, shift=100))
    with pytest.raises(DomainError, match=r"model nodes do not match the requested node set: "
                                          r"missing \[3, 4, .*\], extra \[103, 104, "):
        model.aligned_to(grid.load_ids)


@pytest.mark.parametrize("key, value, message", [
    ("sample_counts", (-math.inf,), "sample counts must be positive integers or inf, got -inf"),
    ("sample_counts", (True,), "sample counts must be positive integers or inf, got True"),
    ("sample_counts", ("100",), "sample counts must be positive integers or inf, got 100"),
    ("trials", 1.5, "trials must be an integer, got 1.5"),
    ("trials", True, "trials must be an integer, got True"),
    ("trials", 10**6 + 1, "trials must be at most 1,000,000, got 1000001"),
    ("trials", 2**63, f"trials must be at most 1,000,000, got {2**63}"),
    ("augment_open_lines", 1.5, "augment_open_lines must be an integer, got 1.5"),
    ("augment_open_lines", True, "augment_open_lines must be an integer, got True"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("seed", True, "seed must be a non-negative integer, got True"),
])
def test_a_plan_built_in_python_is_held_to_the_plan_file_rules(key, value, message):
    fields = {"grid": "bus_13_3", "sample_counts": (100.0,), "taus": (0.1,), "trials": 1, "seed": 1}
    ExperimentPlan(**fields)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        ExperimentPlan(**dict(fields, **{key: value}))


def test_experiment_seed_falls_back_to_env(monkeypatch, tmp_path):
    plan = _tiny_plan(seed=None, sample_counts=[30], trials=2)
    monkeypatch.setenv("GRIDTOP_SEED", "123")
    r1 = run_experiment(plan)
    r2 = run_experiment(plan)
    monkeypatch.setenv("GRIDTOP_SEED", "124")
    r3 = run_experiment(plan)
    assert r1.rows == r2.rows
    assert r1.rows != r3.rows
