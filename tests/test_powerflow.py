"""Linear, DC-resistive, and nonlinear solver behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import ConvergenceError, DomainError
from gridtop.grid import weighted_laplacians
from gridtop.powerflow import (
    InjectionVector,
    dc_resistive_solve,
    distflow_solve,
    lcpf_response,
    lcpf_solve,
    lcpf_solve_many,
)

from conftest import chain_grid, make_grid, random_instance, single_edge_grid, two_tree_grid


def _random_injection(grid, seed, scale=0.01):
    rng = np.random.default_rng(seed)
    return InjectionVector(p=rng.normal(-scale, scale / 3, grid.n_loads),
                           q=rng.normal(-0.3 * scale, scale / 10, grid.n_loads))


# -- linear coupled model -----------------------------------------------------


def test_lcpf_zero_injections_zero_state(fig3):
    grid, forest = fig3
    st_ = lcpf_solve(forest, InjectionVector(p=np.zeros(5), q=np.zeros(5)))
    assert not st_.eps.any() and not st_.theta.any()


def test_lcpf_single_load_scalar_products():
    grid, forest = single_edge_grid(r=0.5, x=0.5)
    st_ = lcpf_solve(forest, InjectionVector(p=[-0.01], q=[0.0]))
    assert st_.eps[0] == pytest.approx(-0.005, rel=1e-12)     # r * p
    assert st_.theta[0] == pytest.approx(-0.005, rel=1e-12)   # x * p


def test_lcpf_dimension_mismatch(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError, match="dimension"):
        lcpf_solve(forest, InjectionVector(p=np.zeros(2), q=np.zeros(2)))


def test_lcpf_round_trip_through_laplacians(fig3):
    # Plugging the solution back into p = H_g eps + H_beta theta must
    # reproduce the injections.
    grid, forest = fig3
    inj = _random_injection(grid, 5)
    st_ = lcpf_solve(forest, inj)
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    p_back = wl.h_g @ st_.eps[perm] + wl.h_beta @ st_.theta[perm]
    q_back = wl.h_beta @ st_.eps[perm] - wl.h_g @ st_.theta[perm]
    np.testing.assert_allclose(p_back, inj.p[perm], atol=1e-10)
    np.testing.assert_allclose(q_back, inj.q[perm], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_lcpf_sweep_equals_dense_inverse(seed):
    grid, forest = random_instance(seed)
    inj = _random_injection(grid, seed + 1)
    st_ = lcpf_solve(forest, inj)
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    a = np.linalg.inv(wl.h_inv_r)
    b = np.linalg.inv(wl.h_inv_x)
    np.testing.assert_allclose(st_.eps[perm], a @ inj.p[perm] + b @ inj.q[perm], atol=1e-10)
    np.testing.assert_allclose(st_.theta[perm], b @ inj.p[perm] - a @ inj.q[perm], atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_lcpf_linearity(seed):
    grid, forest = random_instance(seed)
    inj1 = _random_injection(grid, seed + 1)
    inj2 = _random_injection(grid, seed + 2)
    alpha = 1.7
    combo = InjectionVector(p=alpha * inj1.p + inj2.p, q=alpha * inj1.q + inj2.q)
    s1, s2, sc = lcpf_solve(forest, inj1), lcpf_solve(forest, inj2), lcpf_solve(forest, combo)
    np.testing.assert_allclose(sc.eps, alpha * s1.eps + s2.eps, atol=1e-10)
    np.testing.assert_allclose(sc.theta, alpha * s1.theta + s2.theta, atol=1e-10)


def test_lcpf_tree_locality():
    # Injections confined to one tree leave the other tree's state at zero.
    grid, forest = two_tree_grid()
    idx = grid.load_index
    p = np.zeros(2)
    p[idx[2]] = -0.02
    st_ = lcpf_solve(forest, InjectionVector(p=p, q=np.zeros(2)))
    assert st_.eps[idx[3]] == 0.0 and st_.theta[idx[3]] == 0.0
    assert st_.eps[idx[2]] != 0.0


def test_lcpf_response_matches_batch(fig3):
    grid, forest = fig3
    rng = np.random.default_rng(0)
    p = rng.normal(-0.01, 0.003, (4, grid.n_loads))
    q = rng.normal(-0.003, 0.001, (4, grid.n_loads))
    batch = lcpf_solve_many(forest, p, q)
    for j in range(4):
        single = lcpf_solve(forest, InjectionVector(p=p[j], q=q[j]))
        np.testing.assert_allclose(batch.eps[j], single.eps, atol=1e-12)
        np.testing.assert_allclose(batch.theta[j], single.theta, atol=1e-12)


def test_lcpf_response_built_once_per_forest(monkeypatch):
    import gridtop.powerflow as powerflow
    from gridtop.grid import path_sum_matrix
    from gridtop.moments import analytic_moment_set, default_model

    calls = []

    def counting(forest, weights):
        calls.append(forest)
        return path_sum_matrix(forest, weights)

    monkeypatch.setattr(powerflow, "path_sum_matrix", counting)
    grid, forest = random_instance(5)
    rng = np.random.default_rng(1)
    p = rng.normal(-0.01, 0.003, (3, grid.n_loads))
    first = lcpf_solve_many(forest, p, 0.3 * p)
    for _ in range(4):
        again = lcpf_solve_many(forest, p, 0.3 * p)
    analytic_moment_set(forest, default_model(forest))
    assert len(calls) == 2
    assert np.array_equal(first.eps, again.eps) and np.array_equal(first.theta, again.theta)

    a, b = lcpf_response(forest)
    assert lcpf_response(forest)[0] is a
    assert np.array_equal(a, path_sum_matrix(forest, {ei: 1.0 / grid.edges[ei].r for ei in forest.closed_edges}))
    assert np.array_equal(b, path_sum_matrix(forest, {ei: 1.0 / grid.edges[ei].x for ei in forest.closed_edges}))
    with pytest.raises(ValueError):
        a[0, 0] = 1.0

    _, other = random_instance(5)  # an equal but distinct forest builds its own
    lcpf_response(other)
    assert len(calls) == 4


def test_lcpf_phases_are_computed_on_first_read():
    from gridtop.fixtures import load_fixture
    from gridtop.moments import default_model, sample_injections
    from gridtop.powerflow import _Deferred

    grid, forest = load_fixture("bus_13_3")
    batch = sample_injections(default_model(forest), 300, seed=4)
    a, b = lcpf_response(forest)
    eager = batch.p @ b - batch.q @ a  # the product every call computed before
    samples = lcpf_solve_many(forest, batch.p, batch.q)
    assert isinstance(samples.__dict__["theta"], _Deferred)
    assert np.array_equal(samples.theta.view(np.int64), eager.view(np.int64))
    assert samples.theta is samples.theta
    assert np.array_equal(samples[7].theta, eager[7])


def test_run_experiment_never_computes_phases(monkeypatch):
    from gridtop.harness import plan_from_dict, run_experiment
    from gridtop.powerflow import _Deferred

    def refuse(self, name):
        raise AssertionError(f"{name} was computed")

    monkeypatch.setattr(_Deferred, "get", refuse)
    plan = plan_from_dict({"grid": "bus_13_3", "sample_counts": [50, "inf"], "taus": [0.1], "trials": 2,
                           "seed": 3})
    assert run_experiment(plan).failures == 0


def test_lcpf_response_dies_with_its_forest():
    import gc
    import weakref

    grid, forest = random_instance(2)
    a, _ = lcpf_response(forest)
    forest_ref = weakref.ref(forest)
    del forest
    gc.collect()
    assert forest_ref() is None


# -- DC-resistive model -------------------------------------------------------


def test_dc_zero_and_single_load():
    grid, forest = single_edge_grid(r=0.25, x=0.25)  # g = r/(r^2+x^2) = 2
    zero = dc_resistive_solve(forest, InjectionVector(p=[0.0], q=[0.0]))
    assert zero.eps[0] == 0.0 and zero.theta[0] == 0.0
    st_ = dc_resistive_solve(forest, InjectionVector(p=[-0.01], q=[0.0]))
    assert st_.eps[0] == pytest.approx(-0.005, rel=1e-12)  # p / g


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dc_matches_dense_conductance_oracle(seed):
    grid, forest = random_instance(seed)
    inj = _random_injection(grid, seed + 3)
    st_ = dc_resistive_solve(forest, inj)
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    hg_inv = np.linalg.inv(wl.h_g)
    np.testing.assert_allclose(st_.eps[perm], hg_inv @ inj.p[perm], atol=1e-10)
    np.testing.assert_allclose(st_.theta[perm], -hg_inv @ inj.q[perm], atol=1e-10)


@pytest.mark.parametrize("seed", range(12))
def test_dc_response_is_the_conductance_path_sum_matrix(seed):
    from gridtop.grid import edge_weights, path_sum_matrix

    grid, forest = random_instance(seed)
    a = path_sum_matrix(forest, edge_weights(forest, "g"))
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    scale = np.abs(a).max()
    np.testing.assert_allclose(a[np.ix_(perm, perm)], np.linalg.inv(wl.h_g), rtol=1e-12, atol=1e-13 * scale)
    inj = _random_injection(grid, seed + 5)
    state = dc_resistive_solve(forest, inj)
    np.testing.assert_allclose(state.eps, a @ inj.p, rtol=1e-12, atol=1e-13 * scale * np.abs(inj.p).max())
    np.testing.assert_allclose(state.theta, -(a @ inj.q), rtol=1e-12, atol=1e-13 * scale * np.abs(inj.q).max())


def test_dc_is_the_small_reactance_limit_of_lcpf():
    # With x = eta * r the gap between the two models shrinks like O(eta).
    def gap(eta):
        nodes = [(0, "substation")] + [(i, "load") for i in range(1, 6)]
        edges = [(i - 1, i, 0.2, 0.2 * eta) for i in range(1, 6)]
        grid, forest = make_grid(nodes, edges, closed=list(range(5)))
        inj = _random_injection(grid, 11)
        lc = lcpf_solve(forest, inj)
        dc = dc_resistive_solve(forest, inj)
        return np.max(np.abs(lc.eps - dc.eps))

    g2, g3 = gap(1e-2), gap(1e-3)
    assert g3 < 0.2 * g2
    assert g2 < 1e-3


# -- DistFlow -----------------------------------------------------------------


def test_distflow_no_load_flat_profile(fig3):
    grid, forest = fig3
    res = distflow_solve(forest, InjectionVector(p=np.zeros(5), q=np.zeros(5)), v0=1.0)
    np.testing.assert_allclose(res.state.eps, 0.0, atol=1e-14)
    assert all(f == (0.0, 0.0) for f in res.flows.values())
    assert res.state.theta is None


def test_distflow_single_load_fixed_point():
    # Scalar oracle: with one edge the recursion collapses to the pair
    # f <- L + r (f^2 + h^2) / v0^2,  h <- x (f^2 + h^2) / v0^2
    # (the reactive flow carries the reactive line loss) plus the voltage
    # update.
    r = x = 0.5
    load = 0.01  # consumption-positive magnitude of p = -0.01
    grid, forest = single_edge_grid(r=r, x=x)
    res = distflow_solve(forest, InjectionVector(p=[-load], q=[0.0]), tol=1e-14)
    f, h = load, 0.0
    for _ in range(200):
        sq = f * f + h * h
        f, h = load + r * sq, x * sq
    vsq = 1.0 - 2.0 * (r * f + x * h) + (r * r + x * x) * (f * f + h * h) / 1.0
    assert res.flows[0][0] == pytest.approx(f, rel=1e-12)
    assert res.flows[0][1] == pytest.approx(h, rel=1e-12)
    assert res.state.eps[0] == pytest.approx(np.sqrt(vsq) - 1.0, rel=1e-12)
    # within O(1e-4) of the linear-model answer v = 1 - 0.005 = 0.995
    assert res.state.eps[0] < 0.0
    assert abs(res.state.eps[0] - (-0.005)) < 1e-4


def test_distflow_leaf_flows_equal_leaf_loads_up_to_own_loss(fig3):
    # The lossless boundary condition: a leaf's flow is its own load, plus
    # only the quadratic loss term of its own edge.
    grid, forest = fig3
    inj = _random_injection(grid, 21)
    res = distflow_solve(forest, inj, tol=1e-12)
    idx = grid.load_index
    for leaf in (4, 5):  # leaves of the fig3 tree
        e = grid.edges[forest.parent_edge[leaf]]
        fp, fq = res.flows[forest.parent_edge[leaf]]
        loss = (fp * fp + fq * fq) / (1.0 + res.state.eps[idx[forest.parent[leaf]]]) ** 2
        assert fp == pytest.approx(-inj.p[idx[leaf]] + e.r * loss, rel=1e-10)
        assert fq == pytest.approx(-inj.q[idx[leaf]] + e.x * loss, rel=1e-10)
        assert abs(fp - (-inj.p[idx[leaf]])) <= 2 * e.r * (fp * fp + fq * fq)


def test_distflow_converged_point_satisfies_recursion(fig3):
    # Flow-balance and voltage-update residuals at the fixed point stay
    # below the convergence tolerance on every edge.
    grid, forest = fig3
    inj = _random_injection(grid, 22)
    tol = 1e-11
    res = distflow_solve(forest, inj, tol=tol)
    idx = grid.load_index
    vsq = {0: 1.0}
    for nid in forest.loads_by_depth:
        vsq[nid] = (1.0 + res.state.eps[idx[nid]]) ** 2
    for nid in grid.load_ids:
        par = forest.parent[nid]
        e = grid.edges[forest.parent_edge[nid]]
        fp, fq = res.flows[forest.parent_edge[nid]]
        recv = -inj.p[idx[nid]] + sum(res.flows[forest.parent_edge[ch]][0] for ch in forest.children[nid])
        recv_q = -inj.q[idx[nid]] + sum(res.flows[forest.parent_edge[ch]][1] for ch in forest.children[nid])
        loss = (fp * fp + fq * fq) / vsq[par]
        assert abs(fp - e.r * loss - recv) <= tol
        assert abs(fq - e.x * loss - recv_q) <= tol
        v_update = vsq[par] - 2 * (e.r * fp + e.x * fq) + (e.r ** 2 + e.x ** 2) * loss
        assert abs(vsq[nid] - v_update) <= 10 * tol


def test_distflow_gap_to_lcpf_shrinks_quadratically(fig3):
    grid, forest = fig3

    def gap(scale):
        inj = InjectionVector(p=np.full(5, -scale), q=np.full(5, -0.3 * scale))
        lc = lcpf_solve(forest, inj)
        df = distflow_solve(forest, inj, tol=1e-13)
        return np.max(np.abs(df.state.eps - lc.eps))

    ratio = gap(1e-2) / gap(1e-3)
    assert 30 <= ratio <= 300


def test_distflow_nonconvergence_raises():
    grid, forest = chain_grid(3, r=0.5, x=0.5)
    heavy = InjectionVector(p=np.full(3, -0.4), q=np.zeros(3))
    with pytest.raises(ConvergenceError):
        distflow_solve(forest, heavy, max_iter=1, tol=1e-12)


def test_distflow_rejects_bad_parameters(single_edge):
    grid, forest = single_edge
    inj = InjectionVector(p=[-0.01], q=[0.0])
    with pytest.raises(DomainError):
        distflow_solve(forest, inj, v0=0.0)
    with pytest.raises(DomainError):
        distflow_solve(forest, inj, tol=-1.0)
    with pytest.raises(DomainError):
        distflow_solve(forest, inj, max_iter=0)
    with pytest.raises(DomainError, match="root voltage"):
        distflow_solve(forest, inj, v0="1")
    with pytest.raises(DomainError, match="tolerance"):
        distflow_solve(forest, inj, tol="1")


def test_distflow_tree_locality():
    grid, forest = two_tree_grid()
    idx = grid.load_index
    p = np.zeros(2)
    p[idx[2]] = -0.05
    res = distflow_solve(forest, InjectionVector(p=p, q=np.zeros(2)), tol=1e-12)
    assert res.state.eps[idx[3]] == pytest.approx(0.0, abs=1e-14)
    assert res.state.eps[idx[2]] < 0.0
