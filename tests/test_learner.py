"""Forest reconstruction: exact recovery, error metric, traces, and edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError
from gridtop.fixtures import load_fixture
from gridtop.learner import LearnerConfig, reconstruct, relative_error
from gridtop.moments import MomentSet, analytic_moment_set, default_model, sample_injections
from gridtop.powerflow import VoltageSamples, lcpf_solve_many

from conftest import chain_grid, random_a1_model, random_instance, shuffled_chain_grid, single_edge_grid, star_grid
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


def test_pop_order_non_increasing_and_children_first():
    grid, forest = random_instance(123)[0], random_instance(123)[1]
    model = random_a1_model(forest, 9)
    mset = _analytic(forest, model)
    res = reconstruct(mset, model, grid, LearnerConfig(tau=1e-9))
    idx = grid.load_index
    moments = [0.0 if grid.is_substation(nid) else float(mset.sigma_eps[idx[nid], idx[nid]])
               for nid in res.pop_order]
    assert all(a >= b - 1e-18 for a, b in zip(moments, moments[1:]))
    seen = set()
    for nid in res.pop_order:
        # every strict descendant must already have popped
        if not grid.is_substation(nid):
            for child in forest.children.get(nid, ()):
                assert child in seen
        seen.add(nid)


def test_substations_pop_last_with_id_tiebreak():
    grid, forest = random_instance(77)
    model = random_a1_model(forest, 78)
    res = reconstruct(_analytic(forest, model), model, grid, LearnerConfig(tau=1e-9))
    k = grid.n_substations
    assert tuple(res.pop_order[-k:]) == grid.substation_ids


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
    inflated = MomentSet(nodes=exact.nodes, sigma_eps=1.5 * exact.sigma_eps,
                         sigma_theta=None, sigma_theta_eps=None, source="analytic")
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
    nonzero = MomentSet(nodes=grid.load_ids, sigma_eps=np.array([[1e-4]]),
                        sigma_theta=None, sigma_theta_eps=None, source="analytic")
    res = reconstruct(nonzero, zero_model, grid, LearnerConfig(tau=0.5))
    assert res.learned_edges == frozenset()
    rec = [r for r in res.trace if r.leaf == 1 and r.candidate == 0]
    assert rec and rec[0].note == "rhs zero with nonzero lhs"


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
    shuffled = type(samples)(nodes=tuple(np.array(samples.nodes)[perm]),
                             eps=samples.eps[:, perm], theta=None)
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
        data = MomentSet(nodes=nodes, sigma_eps=sigma, sigma_theta=None, sigma_theta_eps=None, source="analytic")
    else:
        eps = _sampled(forest, model, m, seed=seed + 2).eps[:, perm]
        data = VoltageSamples(nodes=nodes, eps=eps, theta=None)
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
                    if not grid.is_substation(a) and adopted_at.get(a, math.inf) >= k]
        assert tested == expected
