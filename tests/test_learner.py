"""Forest reconstruction: exact recovery, error metric, traces, and edge cases."""

import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop import learner
from gridtop.errors import DomainError
from gridtop.fixtures import load_fixture
from gridtop.grid import LOAD, SUBSTATION
from gridtop.harness import generate_random_grid, parse_grid, plan_from_dict, resolve_plan_grid, run_experiment
from gridtop.learner import LearnerConfig, reconstruct, relative_error
from gridtop.moments import InjectionModel, MomentSet, analytic_moment_set, default_model, sample_injections
from gridtop.powerflow import VoltageSamples, lcpf_solve_many

from conftest import (chain_grid, make_grid, model_from_covariances, random_a1_model, random_instance,
                      shuffled_chain_grid, single_edge_grid, star_grid)
from scalar_oracles import reconstruct as oracle_reconstruct


def _analytic(forest, model, variant="lc"):
    return analytic_moment_set(forest, model, variant=variant)


def _sampled(forest, model, m, seed):
    batch = sample_injections(model, m, seed=seed)
    return lcpf_solve_many(forest, batch.p, batch.q)


# -- configuration -------------------------------------------------------------


def test_config_rejects_bad_tau_and_variant():
    with pytest.raises(DomainError):
        LearnerConfig(tau=0.0)
    with pytest.raises(DomainError):
        LearnerConfig(tau=1.0)
    with pytest.raises(DomainError):
        LearnerConfig(variant="ac")


@pytest.mark.parametrize("kwargs", [{"tau": "0.1"}, {"tau": None}, {"tau": True}, {"variant": ["lc"]},
                                    {"variant": None}])
def test_config_rejects_mistyped_tau_and_variant(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(DomainError, match=f"^{name} must"):
        LearnerConfig(**kwargs)


# -- trivial and frozen examples -------------------------------------------------


def test_single_load_node_recovers_unique_edge():
    grid, forest = single_edge_grid()
    model = default_model(forest)
    for tau in (1e-9, 0.5):
        res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=tau), truth=forest)
        assert res.learned_edges == {(0, 1)}
        assert res.relative_error == 0.0


def test_relative_error_arithmetic():
    grid, forest = chain_grid(10)
    perfect = frozenset(grid.edges[ei].pair for ei in forest.closed_edges)
    assert relative_error(perfect, forest) == 0.0
    assert relative_error(frozenset(), forest) == 1.0
    # two mislabeled lines out of ten operational
    swapped = set(perfect)
    swapped.remove((0, 1))
    swapped.add((0, 5))
    assert relative_error(frozenset(swapped), forest) == pytest.approx(0.2)


def test_relative_error_thirteen_edge_example():
    grid, forest = chain_grid(13)
    learned = set(grid.edges[ei].pair for ei in forest.closed_edges)
    learned.remove((12, 13))   # one false negative
    learned.add((0, 13))       # one false positive
    assert relative_error(frozenset(learned), forest) == pytest.approx(2 / 13)


# -- exact recovery ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_recovery_with_analytic_moments(seed):
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 17)
    res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9), truth=forest)
    assert res.relative_error == 0.0
    assert res.learned_edges == frozenset(grid.edges[ei].pair for ei in forest.closed_edges)


def test_exact_recovery_dc_variant():
    grid, forest = chain_grid(7, seed=5)
    model = default_model(forest)
    res = reconstruct(_analytic(forest, model, variant="dc"), model, grid,
                      LearnerConfig(tau=1e-9, variant="dc"), truth=forest)
    assert res.relative_error == 0.0


def test_parentless_loads_are_the_loads_without_a_learned_parent():
    grid, forest = load_fixture("bus_83_11")
    model = default_model(forest)
    exact = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9), truth=forest)
    assert exact.relative_error == 0.0 and exact.parentless_loads == ()
    partial = reconstruct(_sampled(forest, model, 200, 3), model, grid, LearnerConfig(tau=0.01))
    assert partial.parentless_loads == tuple(sorted(set(grid.load_ids) - set(partial.parent_map)))
    assert len(partial.parentless_loads) == grid.n_loads - len(partial.learned_edges) > 0


@pytest.mark.parametrize("computed, configured", [("lc", "dc"), ("dc", "lc")])
def test_reconstruct_refuses_moments_of_another_variant(computed, configured):
    # Unrefused, lc moments under a dc learner learn 5 of 83 edges on
    # bus_83_11 at tau 0.05, with nothing to say the inputs disagree.
    grid, forest = load_fixture("bus_83_11")
    model = default_model(forest)
    mset = _analytic(forest, model, variant=computed)
    assert mset.drops.variant == computed
    with pytest.raises(DomainError, match=f"variant '{computed}'.*variant '{configured}'"):
        reconstruct(mset, model, grid, LearnerConfig(tau=0.05, variant=configured))
    res = reconstruct(mset, model, grid, LearnerConfig(tau=0.05, variant=computed), truth=forest)
    assert res.relative_error == 0.0


def test_pop_order_non_increasing_and_children_first():
    grid, forest = random_instance(123)[0], random_instance(123)[1]
    model = random_a1_model(forest, 9)
    mset = _analytic(forest, model)
    res = reconstruct(mset, model, grid, LearnerConfig(tau=1e-9))
    idx = grid.load_index
    moments = [0.0 if nid in grid.substation_ids else float(mset.sigma_eps[idx[nid], idx[nid]])
               for nid in res.pop_order]
    assert all(a >= b - 1e-18 for a, b in zip(moments, moments[1:]))
    seen = set()
    for nid in res.pop_order:
        # every strict descendant must already have popped
        if nid not in grid.substation_ids:
            for child in forest.children.get(nid, ()):
                assert child in seen
        seen.add(nid)


def test_substations_pop_last_with_id_tiebreak():
    grid, forest = random_instance(77)
    model = random_a1_model(forest, 78)
    res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9))
    k = grid.n_substations
    assert tuple(res.pop_order[-k:]) == grid.substation_ids


def _relabelled(grid, forest, seed):
    """The same grid and forest with every node id replaced, and the nodes
    and lines in shuffled orders; returns the id map and the new forest."""
    rng = np.random.default_rng(seed)
    label = dict(zip((n.id for n in grid.nodes), (1000 + rng.permutation(len(grid.nodes))).tolist()))
    nodes = [grid.nodes[i] for i in rng.permutation(len(grid.nodes))]
    order = rng.permutation(len(grid.edges)).tolist()
    lines = [grid.edges[ei] for ei in order]
    closed = set(forest.closed_edges)
    _, relabelled = make_grid([(label[n.id], n.kind) for n in nodes],
                              [(label[e.u], label[e.v], e.r, e.x, e.switchable) for e in lines],
                              closed=[k for k, ei in enumerate(order) if ei in closed])
    return label, relabelled


@pytest.mark.parametrize("kind", ["bus_13_3", "bus_29_1", "bus_83_11", "random_300_4"])
@pytest.mark.parametrize("seed", range(3))
def test_relabelled_nodes_and_reordered_lines_relabel_the_learned_forest(kind, seed):
    # In the infinite-sample limit the learned forest depends on the grid,
    # not on how its nodes are numbered or its lines listed.
    grid, forest = generate_random_grid(300, 4, 40, seed=20251018) if kind == "random_300_4" else load_fixture(kind)
    label, relabelled = _relabelled(grid, forest, seed)

    def learn(f, tau):
        model = default_model(f)
        return reconstruct(_analytic(f, model), model, f.grid, LearnerConfig(tau=tau), truth=f)

    for tau in (1e-9, 0.05):
        want, got = learn(forest, tau), learn(relabelled, tau)
        assert want.relative_error == got.relative_error == 0.0
        assert got.parent_map == {label[a]: label[b] for a, b in want.parent_map.items()}
        assert got.learned_edges == frozenset(tuple(sorted((label[a], label[b]))) for a, b in want.learned_edges)


# -- noisy behavior ----------------------------------------------------------------


def test_sampled_recovery_improves_with_m():
    grid, forest = chain_grid(6, seed=2)
    model = default_model(forest, sigma_ratio=0.8)
    config = LearnerConfig(tau=0.05)
    errs = {}
    for m in (100, 10_000):
        trials = []
        for t in range(30):
            samples = _sampled(forest, model, m, seed=np.random.SeedSequence((m, t)))
            trials.append(reconstruct(samples, model, grid, config, truth=forest).relative_error)
        errs[m] = float(np.mean(trials))
    assert errs[10_000] < errs[100]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 5_000))
def test_output_is_always_a_forest(seed):
    # Even under heavy noise: no node gets two parents and no cycles form.
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 1)
    samples = _sampled(forest, model, 50, seed=seed + 2)
    res = reconstruct(samples, model, grid, LearnerConfig(tau=0.3), truth=forest)
    assert len(res.parent_map) == len(res.learned_edges)
    comp = {}

    def find(n):
        while comp.get(n, n) != n:
            comp[n] = comp.get(comp[n], comp[n])
            n = comp[n]
        return n

    for u, v in res.learned_edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "learned edges contain a cycle"
        comp[ru] = rv


# -- acceptance statistic mechanics -------------------------------------------------


def test_overshoot_of_the_closed_form_is_rejected():
    # When the sample average overshoots the closed form by 50%, the
    # deviation |1 - LHS/RHS| is 0.5 and rejects; the published form
    # 1 - |LHS/RHS| would be negative and accept.
    grid, forest = single_edge_grid()
    model = default_model(forest)
    exact = _analytic(forest, model)
    inflated = MomentSet(nodes=exact.nodes, sigma_eps=1.5 * exact.sigma_eps)
    corrected = reconstruct(inflated, model, grid, LearnerConfig(tau=0.1))
    assert corrected.learned_edges == frozenset()


def test_zero_rhs_with_nonzero_lhs_is_rejected_and_recorded():
    grid, forest = single_edge_grid()
    n = 1
    zero_model = default_model(forest)
    zero_model = type(zero_model)(nodes=zero_model.nodes,
                                  mu_p=np.zeros(n), mu_q=np.zeros(n),
                                  sigma_p=np.zeros((n, n)), sigma_q=np.zeros((n, n)),
                                  sigma_pq=np.zeros((n, n)))
    nonzero = MomentSet(nodes=grid.load_ids, sigma_eps=np.array([[1e-4]]))
    res = reconstruct(nonzero, zero_model, grid, LearnerConfig(tau=0.5))
    assert res.learned_edges == frozenset()
    rec = [r for r in res.trace if r.leaf == 1 and r.candidate == 0]
    assert rec and rec[0].note == "rhs zero with nonzero lhs"


@pytest.mark.parametrize("learn", [reconstruct, oracle_reconstruct], ids=["learner", "oracle"])
def test_an_overflowing_quotient_is_rejected_without_the_zero_rhs_note(learn):
    # lhs and rhs are finite and rhs is not zero, but lhs / rhs overflows:
    # the deviation is infinite and the pair is rejected with no note.
    grid, forest = single_edge_grid()
    tiny = InjectionModel(nodes=grid.load_ids, mu_p=np.zeros(1), mu_q=np.zeros(1), sigma_p=np.array([[1e-300]]),
                          sigma_q=np.zeros((1, 1)), sigma_pq=np.zeros((1, 1)))
    res = learn(MomentSet(nodes=grid.load_ids, sigma_eps=np.array([[1e10]])), tiny, grid, LearnerConfig(tau=0.5))
    assert res.learned_edges == frozenset()
    (rec,) = [r for r in res.trace if r.leaf == 1 and r.candidate == 0]
    assert rec.lhs == 1e10 and 0.0 < rec.rhs < 1e-300 and rec.deviation == math.inf and rec.note == ""


@pytest.mark.parametrize("learn", [reconstruct, oracle_reconstruct], ids=["learner", "oracle"])
def test_an_overflowing_pair_statistic_is_refused_naming_both_nodes(learn):
    # No np.errstate here: pytest turns a RuntimeWarning into an error, so an
    # overflow that numpy announces before the refusal fails this test.  One
    # sample of +-1.2e154 by alternating load: each square is finite, so the
    # diagonal moments pass, but the square of a difference overflows.
    grid, forest = load_fixture("bus_13_3")
    eps = np.array([[1.2e154 * (-1) ** i for i in range(grid.n_loads)]])
    with pytest.raises(DomainError) as caught:
        learn(VoltageSamples(grid.load_ids, eps), default_model(forest), grid)
    found = re.fullmatch(r"the pair statistic of nodes \((\d+), (\d+)\) is not finite \(lhs inf, rhs \S+\)",
                         str(caught.value))
    assert found and grid.edge_between(*map(int, found.groups())) is not None


def test_non_grid_pairs_are_skipped():
    # The fig3 tree has sibling leaves, so a popped sibling meets the other
    # in the frontier without a grid line between them.
    from conftest import fig3_tree

    grid, forest = fig3_tree()
    model = default_model(forest)
    mset = _analytic(forest, model)
    res = reconstruct(mset, model, grid, LearnerConfig(tau=1e-9), truth=forest)
    skipped = [r for r in res.trace if r.note == "no line in grid"]
    assert skipped and all(r.lhs is None for r in skipped)


def test_trace_rows_expose_decision_fields():
    grid, forest = chain_grid(3)
    model = default_model(forest)
    res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9))
    accepted = [r for r in res.trace if r.accepted]
    assert len(accepted) == 3
    for rec in accepted:
        assert rec.lhs == pytest.approx(rec.rhs, rel=1e-9)
        assert rec.deviation < 1e-9
        assert len(rec) == 7


# -- the trace on first read and the decision margins ---------------------------


def test_run_experiment_never_builds_the_trace(monkeypatch):
    def refuse(result):
        raise RuntimeError("the trace was built")

    monkeypatch.setattr(learner, "_replay_trace", refuse)
    plan = plan_from_dict({"grid": "bus_13_3", "sample_counts": [50, "inf"], "taus": [0.1],
                           "trials": 2, "seed": 3})
    assert run_experiment(plan).failures == 0


def test_trace_is_built_once_from_the_tested_pairs():
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    res = reconstruct(_sampled(forest, model, 200, seed=4), model, grid, LearnerConfig(tau=0.05))
    first = res.trace
    assert res.trace is first
    assert [rec for rec in first if rec.note != "no line in grid"] == list(res.decisions)


def test_leaves_are_tested_in_pop_order_not_id_order():
    # Hub 1 has leaves 2..5 whose lines grow with the id, so under the
    # default model the leaves pop in descending id order, against the
    # order of their ids and of the grid's lines.
    nodes = [(0, SUBSTATION)] + [(i, LOAD) for i in range(1, 6)]
    lines = [(0, 1, 0.1, 0.1), (1, 2, 0.05, 0.05), (1, 3, 0.1, 0.1), (1, 4, 0.2, 0.2),
             (1, 5, 0.3, 0.3), (2, 5, 0.2, 0.2)]
    grid, forest = make_grid(nodes, lines, closed=[0, 1, 2, 3, 4])
    model = default_model(forest)
    samples = _sampled(forest, model, 400, seed=6)
    res = reconstruct(samples, model, grid, LearnerConfig(tau=0.3), truth=forest)
    want = oracle_reconstruct(samples, model, grid, LearnerConfig(tau=0.3), truth=forest)
    assert res.pop_order[:4] == (5, 4, 3, 2)
    assert [rec.leaf for rec in res.decisions if rec.candidate == 1] == [5, 4, 3, 2]
    assert list(res.decisions) == [rec for rec in want.trace if rec.note != "no line in grid"]
    assert res.trace == want.trace


def test_decision_margins_read_the_tested_pairs():
    grid, forest = load_fixture("bus_13_3")
    model = default_model(forest)
    res = reconstruct(_sampled(forest, model, 200, seed=4), model, grid, LearnerConfig(tau=0.05))
    accepted = [rec.deviation for rec in res.trace if rec.accepted]
    rejected = [rec.deviation for rec in res.trace if rec.deviation is not None and not rec.accepted]
    assert accepted and rejected
    assert res.accept_margin == 0.05 - max(accepted) > 0.0
    assert res.reject_margin == min(rejected) - 0.05 >= 0.0


def test_decision_margins_are_none_without_such_a_decision():
    grid, forest = chain_grid(4)
    model = default_model(forest)
    exact = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9))
    assert exact.accept_margin is not None and exact.reject_margin is None
    grid, forest = single_edge_grid()
    mset = _analytic(forest, model := default_model(forest))
    inflated = MomentSet(nodes=mset.nodes, sigma_eps=1.5 * mset.sigma_eps)
    none_accepted = reconstruct(inflated, model, grid, LearnerConfig(tau=0.1))
    assert none_accepted.accept_margin is None and none_accepted.reject_margin is not None


def test_mismatched_sample_nodes_rejected():
    grid, forest = chain_grid(3)
    other_grid, other_forest = chain_grid(4)
    model = default_model(other_forest)
    samples = _sampled(other_forest, model, 10, seed=1)
    with pytest.raises(DomainError, match="load nodes"):
        reconstruct(samples, model, grid, LearnerConfig(tau=0.1))


def test_permuted_sample_columns_are_realigned():
    grid, forest = chain_grid(4, seed=8)
    model = default_model(forest)
    samples = _sampled(forest, model, 4000, seed=3)
    perm = np.array([2, 0, 3, 1])
    shuffled = type(samples)(nodes=tuple(np.array(samples.nodes)[perm]), eps=samples.eps[:, perm])
    a = reconstruct(samples, model, grid, LearnerConfig(tau=0.2), truth=forest)
    b = reconstruct(shuffled, model, grid, LearnerConfig(tau=0.2), truth=forest)
    assert a.learned_edges == b.learned_edges


# -- against the per-pair learner it replaced ------------------------------------

FIXTURES = ("bus_13_3", "bus_29_1", "bus_83_11")
ORACLE_KINDS = FIXTURES + ("random", "shuffled_chain", "star")


def _learner_case(kind, seed, m, variant, permute, zero_model):
    """Grid, truth, learner input and learner model for one drawn case: m
    lc samples (columns permuted on request) or, at m = inf, the exact
    moments of ``variant``; a zero-variance learner model makes every
    closed form zero."""
    if kind in FIXTURES:
        grid, forest = load_fixture(kind)
    elif kind == "random":
        grid, forest = random_instance(seed)
    elif kind == "shuffled_chain":
        grid, forest = shuffled_chain_grid(3 + seed % 20, seed)
    else:
        grid, forest = star_grid(2 + seed % 10, seed)
    model = random_a1_model(forest, seed + 1)
    perm = np.random.default_rng(seed).permutation(grid.n_loads) if permute else np.arange(grid.n_loads)
    nodes = tuple(np.array(grid.load_ids)[perm].tolist())
    if m == math.inf:
        sigma = _analytic(forest, model, variant).sigma_eps[np.ix_(perm, perm)]
        data = MomentSet(nodes=nodes, sigma_eps=sigma)
    else:
        eps = _sampled(forest, model, m, seed=seed + 2).eps[:, perm]
        data = VoltageSamples(nodes=nodes, eps=eps)
    if zero_model:
        n = grid.n_loads
        model = type(model)(nodes=model.nodes, mu_p=np.zeros(n), mu_q=np.zeros(n), sigma_p=np.zeros((n, n)),
                            sigma_q=np.zeros((n, n)), sigma_pq=np.zeros((n, n)))
    return grid, forest, data, model


_cases = dict(
    seed=st.integers(0, 2**16),
    m=st.sampled_from([3, 50, 2000, math.inf]),
    variant=st.sampled_from(["lc", "dc"]),
    tau=st.floats(-9.0, math.log10(0.3)).map(lambda e: 10.0 ** e),
    permute=st.booleans(),
    zero_model=st.booleans(),
)


def _bits(value):
    return None if value is None else int(np.float64(value).view(np.int64))


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@settings(max_examples=12, deadline=None)
@given(**_cases)
def test_reconstruct_matches_the_per_pair_oracle(kind, seed, m, variant, tau, permute, zero_model):
    grid, forest, data, model = _learner_case(kind, seed, m, variant, permute, zero_model)
    config = LearnerConfig(tau=tau, variant=variant)
    got = reconstruct(data, model, grid, config, truth=forest)
    want = oracle_reconstruct(data, model, grid, config, truth=forest)
    assert got.learned_edges == want.learned_edges
    assert got.parent_map == want.parent_map
    assert got.pop_order == want.pop_order
    assert got.relative_error == want.relative_error
    assert len(got.trace) == len(want.trace)
    for g, w in zip(got.trace, want.trace):
        assert (g.leaf, g.candidate, g.accepted, g.note) == (w.leaf, w.candidate, w.accepted, w.note)
        assert [_bits(v) for v in g[2:5]] == [_bits(v) for v in w[2:5]]


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@settings(max_examples=8, deadline=None)
@given(**_cases)
def test_reconstruct_invariants(kind, seed, m, variant, tau, permute, zero_model):
    grid, forest, data, model = _learner_case(kind, seed, m, variant, permute, zero_model)
    res = reconstruct(data, model, grid, LearnerConfig(tau=tau, variant=variant))
    rank = {nid: k for k, nid in enumerate(res.pop_order)}
    accepted = [rec for rec in res.trace if rec.accepted]
    # every accepted record joins a grid line, and no node gets two parents
    assert all(grid.edge_between(rec.leaf, rec.candidate) is not None for rec in accepted)
    assert len({rec.leaf for rec in accepted}) == len(accepted) == len(res.parent_map)
    assert res.parent_map == {rec.leaf: rec.candidate for rec in accepted}
    # a parent pops after its child
    assert all(rank[parent] > rank[child] for child, parent in res.parent_map.items())
    # each popped load is a leaf of every later pop up to and including the
    # one that adopts it, in pop order, and of none after
    adopted_at = {child: rank[parent] for child, parent in res.parent_map.items()}
    for k, b_star in enumerate(res.pop_order):
        tested = [rec.leaf for rec in res.trace if rec.candidate == b_star]
        expected = [a for a in res.pop_order[:k]
                    if a not in grid.substation_ids and adopted_at.get(a, math.inf) >= k]
        assert tested == expected


# -- exact recovery below the old cancellation floor ------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_PLANS = json.loads((Path(__file__).with_name("golden") / "plans.json").read_text())


def _recovery_case(monkeypatch, case):
    """The golden "inf" plan's 300-load, 4-tree grid, or a 1000-load,
    4-tree feeder with a 200-node spine as the benchmark builds it."""
    if case == "golden_inf":
        grid, forest, _ = resolve_plan_grid(plan_from_dict(GOLDEN_PLANS["analytic_multi_tree"]))
        return grid, forest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    feeder = importlib.import_module("feeder")
    rng = np.random.default_rng(int(case.rpartition("_")[2]))
    return parse_grid(feeder.feeder_document(rng, n_loads=1000, n_subs=4, spine=200, name=case))


@pytest.mark.parametrize("case", ["golden_inf", "feeder_0", "feeder_1"])
def test_exact_recovery_at_a_tolerance_of_1e_12(monkeypatch, case):
    # The paper's infinite-sample guarantee holds at any tolerance above
    # rounding: each tested pair's statistic must not lose its digits to
    # cancellation on deep nodes.
    grid, forest = _recovery_case(monkeypatch, case)
    model = default_model(forest)
    for tau in (1e-10, 1e-12):
        res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=tau), truth=forest)
        assert res.relative_error == 0.0, tau


def test_analytic_sets_answer_the_pair_statistic_themselves():
    # Every tested pair of two loads reads the set's own statistic; a pair
    # with a substation reads the leaf's diagonal moment.
    grid, forest = load_fixture("bus_29_1")
    model = default_model(forest)
    mset = _analytic(forest, model)
    idx = grid.load_index
    res = reconstruct(mset, model, grid, LearnerConfig(tau=1e-12), truth=forest)
    assert res.relative_error == 0.0
    for rec in res.decisions:
        if rec.candidate in grid.substation_ids:
            assert rec.lhs == mset.sigma_eps[idx[rec.leaf], idx[rec.leaf]]
        else:
            assert rec.lhs == mset.drops.sq_diff(idx[rec.leaf], idx[rec.candidate])


# -- merges from storage-group blocks -------------------------------------------------


def _trace_bits(result):
    return [(r.leaf, r.candidate, _bits(r.lhs), _bits(r.rhs), _bits(r.deviation), r.accepted, r.note)
            for r in result.trace]


def _tree_blocks_model(forest, seed):
    """An explicit model with a random joint covariance on each tree, none
    across trees, and independent random means: its trees are its storage
    groups, its entries across trees vary and its sigma_pq is asymmetric."""
    rng = np.random.default_rng(seed)
    tree = forest.load_tree_index
    n = len(tree)
    joint = np.zeros((2 * n, 2 * n))
    for k in np.unique(tree):
        members = np.flatnonzero(tree == k)
        both = np.concatenate([members, n + members])
        f = rng.normal(size=(len(both), len(both))) * 1e-3
        joint[np.ix_(both, both)] = f @ f.T
    return model_from_covariances(forest.grid.load_ids, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.001, 0.004, n),
                                  joint[:n, :n], joint[n:, n:], joint[:n, n:])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("source", ["analytic", "samples"])
@pytest.mark.parametrize("kind", ["default", "tree_blocks"])
def test_merges_across_storage_groups_match_the_dense_descendant_sums(monkeypatch, seed, source, kind):
    # A large tau on a grid with open lines between its trees makes the
    # learner accept lines across trees, so descendant sets span the model's
    # storage groups, its trees, and merge through InjectionModel.block.
    # The trace keeps the bits of sums gathered from the dense matrices.
    from dense_oracles import DenseDescendantSums

    grid, forest = generate_random_grid(40, 3, 40, seed=seed)
    model = default_model(forest, sigma_ratio=0.8) if kind == "default" else _tree_blocks_model(forest, seed)
    assert len(model.groups) == 3
    if source == "analytic":
        data = analytic_moment_set(forest, model)
    else:
        batch = sample_injections(model, 20, seed)
        data = lcpf_solve_many(forest, batch.p, batch.q)
    config = LearnerConfig(tau=0.9)
    got = reconstruct(data, model, grid, config)
    loads = grid.load_index
    assert any(b in loads and forest.tree_of[a] != forest.tree_of[b] for a, b in got.parent_map.items())
    monkeypatch.setattr(learner, "_DescendantSums", DenseDescendantSums)
    want = reconstruct(data, model, grid, config)
    assert _trace_bits(got) == _trace_bits(want)


@pytest.mark.parametrize("fixture, mu_p, pair", [("bus_13_3", -5e153, (4, 4)), ("bus_13_3", -1e154, (3, 7)),
                                                 ("bus_83_11", -5e153, (11, 27))])
def test_an_analytic_set_refuses_a_non_finite_moment_naming_the_first_pair(fixture, mu_p, pair):
    # The means are finite, but the drop moments overflow.  The analytic set
    # settles finiteness from its blocks and builds sigma_eps only to name
    # the first pair, in row-major order, that a dense matrix names; the
    # refusal comes without a numpy warning.
    grid, forest = load_fixture(fixture)
    model = default_model(forest, mu_p=mu_p)
    with np.errstate(over="ignore", invalid="ignore"):
        mset = analytic_moment_set(forest, model)
    message = f"^moment entry of nodes \\({pair[0]}, {pair[1]}\\) is not finite$"
    with pytest.raises(DomainError, match=message):
        reconstruct(mset, model, grid)
    with pytest.raises(DomainError, match=message):
        reconstruct(MomentSet(nodes=mset.nodes, sigma_eps=mset.sigma_eps), model, grid)


def test_the_infinite_sample_path_builds_no_dense_moment_matrix(monkeypatch):
    from gridtop.moments import LineDrops, assumption1_violations

    def refuse(*args):
        raise AssertionError("a dense N x N moment matrix was built")

    monkeypatch.setattr(InjectionModel, "_dense", refuse)
    monkeypatch.setattr(LineDrops, "sigma_eps", refuse)
    grid, forest = generate_random_grid(60, 4, 10, seed=5)
    model = default_model(forest)
    assert assumption1_violations(forest, model) == []
    result = reconstruct(analytic_moment_set(forest, model), model, grid, LearnerConfig(tau=1e-6), truth=forest)
    assert result.relative_error == 0.0
