"""Sampling, empirical moments, analytic moment formulas, and the moment
identities behind the learner."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import AssumptionViolation, DomainError, ModelError, ParseError
from gridtop.grid import LOAD, SUBSTATION
from gridtop.moments import (
    _PSD_SLACK,
    InjectionModel,
    analytic_moment_set,
    analytic_sigma_eps,
    analytic_sigma_theta,
    analytic_sigma_theta_eps,
    assumption1_violations,
    default_model,
    empirical_moments,
    expected_sq_diff,
    model_from_dict,
    model_to_dict,
    sample_injections,
    verify_moment_ordering,
)
from gridtop.powerflow import VoltageSamples, lcpf_solve_many

from conftest import (chain_grid, empty_substation_grid, make_grid, random_a1_model, random_instance,
                      shuffled_chain_grid, single_edge_grid, star_grid)


def _zero_model(nodes):
    n = len(nodes)
    z = np.zeros((n, n))
    return InjectionModel(nodes=tuple(nodes), mu_p=np.zeros(n), mu_q=np.zeros(n),
                          sigma_p=z, sigma_q=z.copy(), sigma_pq=z.copy())


# -- model validation ---------------------------------------------------------


def test_model_rejects_non_psd_joint_covariance():
    nodes = (1, 2)
    omega = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ModelError, match="positive semidefinite"):
        InjectionModel.from_covariances(nodes, np.zeros(2), np.zeros(2),
                                        omega, np.eye(2), np.zeros((2, 2)))


def test_model_rejects_asymmetric_sigma():
    nodes = (1, 2)
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ModelError, match="symmetric"):
        InjectionModel(nodes=nodes, mu_p=np.zeros(2), mu_q=np.zeros(2),
                       sigma_p=bad, sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))


@pytest.mark.parametrize("i, j", [(298, 299), (255, 256), (0, 299), (256, 0)])
def test_model_symmetry_check_sees_every_tile(i, j):
    # 300 loads span two 256-wide tiles: the last tile, a pair just off the
    # diagonal across the tile boundary and both off-diagonal tiles.
    n = 300
    bad = np.eye(n)
    bad[i, j] = 0.5
    with pytest.raises(ModelError, match="sigma_q must be symmetric"):
        InjectionModel(nodes=tuple(range(1, n + 1)), mu_p=np.zeros(n), mu_q=np.zeros(n),
                       sigma_p=np.eye(n), sigma_q=bad, sigma_pq=np.zeros((n, n)))
    bad[i, j] = 1e-14  # within the rounding slack: still symmetric
    InjectionModel(nodes=tuple(range(1, n + 1)), mu_p=np.zeros(n), mu_q=np.zeros(n),
                   sigma_p=bad, sigma_q=np.eye(n), sigma_pq=np.zeros((n, n)))


def test_tiled_symmetry_test_equals_array_equal():
    from gridtop.moments import _equals_transpose

    rng = np.random.default_rng(0)
    for n in range(1, 11):
        m = rng.normal(size=(n, n))
        m = m + m.T
        assert _equals_transpose(m, tile=3)
        for i in range(n):
            for j in range(n):
                bent = m.copy()
                bent[i, j] += 1.0
                assert _equals_transpose(bent, tile=3) == np.array_equal(bent, bent.T)


@pytest.mark.parametrize("name, value", [("sigma_p", [[1.0, 0.0], [0.0]]), ("sigma_q", [["a", 0.0], [0.0, 1.0]]),
                                         ("mu_p", [0.0, [1.0]]), ("mu_q", ["x", "y"]),
                                         ("sigma_pq", [["0", "0"], ["0", "0"]]), ("mu_q", np.array(["0", "0"])),
                                         ("sigma_p", np.array([[1.0, "0"], [0.0, 1.0]], dtype=object)),
                                         ("mu_p", [b"0", b"0"])])
def test_model_rejects_entries_it_cannot_hold_as_floats(name, value):
    fields = dict(mu_p=np.zeros(2), mu_q=np.zeros(2), sigma_p=np.eye(2), sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))
    fields[name] = value
    with pytest.raises(ModelError, match=f"^{name} must be an array of numbers"):
        InjectionModel(nodes=(1, 2), **fields)


@pytest.mark.parametrize("name, value", [("mu_p", [0.0, [1.0]]), ("mu_q", ["0", "0"]),
                                         ("omega_p", [[1.0, 0.0], [0.0]]), ("omega_q", [["1", "0"], ["0", "1"]]),
                                         ("omega_pq", [[0.0, "x"], [0.0, 0.0]])])
def test_model_from_covariances_names_an_entry_it_cannot_hold(name, value):
    fields = dict(mu_p=np.zeros(2), mu_q=np.zeros(2), omega_p=np.eye(2), omega_q=np.eye(2), omega_pq=np.zeros((2, 2)))
    fields[name] = value
    with pytest.raises(ModelError, match=f"^{name} must be an array of numbers"):
        InjectionModel.from_covariances((1, 2), **fields)


@pytest.mark.parametrize("name, value, message", [
    *((name, value, f"{name} must have shape (3, 3), got {shape}")
      for name in ("omega_p", "omega_q", "omega_pq")
      for value, shape in ((0.5, "()"), (np.full(3, 0.5), "(3,)"), (np.eye(2), "(2, 2)"))),
    ("mu_p", np.zeros(2), "mean vectors must have shape (3,)"),
    ("mu_q", np.zeros(4), "mean vectors must have shape (3,)"),
])
def test_model_from_covariances_refuses_mis_shaped_entries(name, value, message):
    # Added to an (n, n) outer product, a mis-shaped omega would broadcast.
    fields = dict(mu_p=np.zeros(3), mu_q=np.zeros(3), omega_p=np.eye(3), omega_q=np.eye(3), omega_pq=np.zeros((3, 3)))
    fields[name] = value
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        InjectionModel.from_covariances((1, 2, 3), **fields)


def test_model_keeps_float_arrays_without_a_copy():
    fields = dict(mu_p=np.zeros(2), mu_q=np.zeros(2), sigma_p=np.eye(2), sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))
    model = InjectionModel(nodes=(1, 2), **fields)
    assert all(getattr(model, name) is value for name, value in fields.items())


def test_default_model_satisfies_assumption1(fig3):
    grid, forest = fig3
    model = default_model(forest)
    assert assumption1_violations(forest, model) == []


def test_default_model_zero_cross_tree_covariance():
    from conftest import two_tree_grid

    grid, forest = two_tree_grid()
    model = default_model(forest)
    idx = {nid: i for i, nid in enumerate(model.nodes)}
    assert model.omega_p[idx[2], idx[3]] == 0.0
    # non-central moments across trees still carry the mean product
    assert model.sigma_p[idx[2], idx[3]] == pytest.approx(0.005 ** 2)


def test_model_round_trips_through_dict(fig3):
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.4)
    back = model_from_dict(model_to_dict(model))
    assert back.nodes == model.nodes
    np.testing.assert_allclose(back.sigma_p, model.sigma_p)
    np.testing.assert_allclose(back.sigma_pq, model.sigma_pq)
    np.testing.assert_allclose(back.mu_q, model.mu_q)


@pytest.mark.parametrize("key, value, location", [
    ("sigma_pq", None, "model"),
    ("nodes", None, "model"),
    ("nodes", [1.5, 2, 3, 4, 5], "model.nodes"),
    ("mu_q", "abc", "model.mu_q"),
    ("mu_p", [-0.005, True, -0.005, -0.005, -0.005], "model.mu_p"),
    ("sigma_p", [[1.0, "x", 0.0, 0.0, 0.0]] * 5, "model.sigma_p"),
    ("sigma_q", [[1.0, 0.0], [0.0, 1.0, 0.0]], "model.sigma_q"),
    ("distribution", "laplace", "model.distribution"),
    ("rho", 0.1, "model.rho"),
])
def test_explicit_model_errors_name_their_key(fig3, key, value, location):
    doc = model_to_dict(default_model(fig3[1]))
    if value is None:  # the key is missing
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ParseError, match=f"^{re.escape(location)}: "):
        model_from_dict(doc)


def test_explicit_model_is_gaussian(fig3):
    grid, forest = fig3
    doc = model_to_dict(default_model(forest))
    assert "distribution" not in doc
    model = model_from_dict(dict(doc, distribution="gaussian"))
    np.testing.assert_array_equal(model.sigma_p, default_model(forest).sigma_p)


# -- sampling -----------------------------------------------------------------


def test_sampling_zero_covariance_returns_means(fig3):
    grid, forest = fig3
    n = grid.n_loads
    model = InjectionModel.from_covariances(
        grid.load_ids, np.full(n, -0.007), np.full(n, -0.002),
        np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)))
    batch = sample_injections(model, 25, seed=3)
    np.testing.assert_allclose(batch.p, -0.007, atol=1e-12)
    np.testing.assert_allclose(batch.q, -0.002, atol=1e-12)


def test_sampling_deterministic_per_seed(fig3):
    grid, forest = fig3
    model = default_model(forest)
    b1 = sample_injections(model, 50, seed=11)
    b2 = sample_injections(model, 50, seed=11)
    b3 = sample_injections(model, 50, seed=12)
    np.testing.assert_array_equal(b1.p, b2.p)
    np.testing.assert_array_equal(b1.q, b2.q)
    assert not np.array_equal(b1.p, b3.p)


def test_sampling_law_of_large_numbers(fig3):
    # Entrywise: the sample second moment must sit within five standard
    # errors of the model moment at m = 1e5.
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    m = 100_000
    batch = sample_injections(model, m, seed=7)
    prods = batch.p[:, :, None] * batch.p[:, None, :]
    hat = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(m)
    assert np.all(np.abs(hat - model.sigma_p) <= 5 * se + 1e-15)


def test_sampling_rejects_bad_count(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError):
        sample_injections(default_model(forest), 0, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", np.float64(2.0), -(2 ** 70)])
def test_sampling_rejects_a_bad_seed(fig3, seed):
    from gridtop.harness.experiment import simulate_voltage

    model = default_model(fig3[1])
    for draw in (lambda: sample_injections(model, 5, seed), lambda: simulate_voltage(fig3[1], model, 5, seed)):
        with pytest.raises(DomainError, match=f"seed must be .*, got {re.escape(repr(seed))}"):
            draw()


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7), np.random.SeedSequence((3, 1))])
def test_sampling_draws_for_valid_seeds_are_unchanged(fig3, seed):
    model = default_model(fig3[1])
    mean = np.concatenate([model.mu_p, model.mu_q])
    want = np.random.default_rng(seed).multivariate_normal(mean, model.joint_covariance, size=20, method="eigh")
    batch = sample_injections(model, 20, seed)
    assert np.array_equal(np.hstack([batch.p, batch.q]), want)


# -- empirical moments --------------------------------------------------------


def test_empirical_moments_single_sample_outer_product():
    samples = VoltageSamples(nodes=(1, 2), eps=np.array([[1.0, 2.0]]), theta=None)
    mset = empirical_moments(samples)
    np.testing.assert_allclose(mset.sigma_eps, [[1.0, 2.0], [2.0, 4.0]])
    assert mset.m == 1 and mset.source == "empirical"
    assert mset.sigma_theta is None


def test_empirical_moments_zero_samples_zero_matrix():
    samples = VoltageSamples(nodes=(1, 2), eps=np.zeros((9, 2)), theta=np.zeros((9, 2)))
    mset = empirical_moments(samples)
    assert not mset.sigma_eps.any()
    assert not mset.sigma_theta.any()


def test_empirical_moments_empty_set_rejected():
    with pytest.raises(DomainError, match="empty"):
        empirical_moments(VoltageSamples(nodes=(1, 2), eps=np.zeros((0, 2))))


def test_empirical_moments_take_only_a_batch():
    samples = VoltageSamples(nodes=(1, 2), eps=np.ones((3, 2)))
    with pytest.raises(DomainError, match="expected a VoltageSamples batch"):
        empirical_moments(samples[j] for j in range(3))


def test_empirical_moments_converge_to_analytic(fig3):
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    exact = analytic_sigma_eps(forest, model)

    def err(m, seed):
        batch = sample_injections(model, m, seed=seed)
        volt = lcpf_solve_many(forest, batch.p, batch.q)
        return np.max(np.abs(empirical_moments(volt).sigma_eps - exact)) / np.max(np.abs(exact))

    coarse, fine = err(500, 21), err(50_000, 22)
    assert fine < coarse
    assert fine < 0.05


# -- analytic formulas ----------------------------------------------------------


def test_analytic_sigma_eps_two_node_dc_frozen_value():
    # Path a(1) - b(2) - root with unit resistances and negligible reactance:
    # H_g = [[1,-1],[-1,2]], Sigma_p = I, and the squared inverse is
    # [[5,3],[3,2]] with the leaf first.
    grid, forest = make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD)],
        [(1, 2, 1.0, 1e-9), (2, 0, 1.0, 1e-9)],
        closed=[0, 1],
    )
    model = InjectionModel(nodes=(1, 2), mu_p=np.zeros(2), mu_q=np.zeros(2),
                           sigma_p=np.eye(2), sigma_q=np.zeros((2, 2)), sigma_pq=np.zeros((2, 2)))
    sigma = analytic_sigma_eps(forest, model, variant="dc")
    np.testing.assert_allclose(sigma, [[5.0, 3.0], [3.0, 2.0]], rtol=1e-8)


def test_analytic_sigma_eps_zero_model_is_zero(fig3):
    grid, forest = fig3
    model = _zero_model(grid.load_ids)
    assert not analytic_sigma_eps(forest, model).any()
    assert not analytic_sigma_theta(forest, model).any()
    assert not analytic_sigma_theta_eps(forest, model).any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_analytic_dc_matches_dense_oracle(seed):
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 1)
    from gridtop.grid import weighted_laplacians

    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    hg_inv = np.linalg.inv(wl.h_g)
    dense = hg_inv @ model.aligned_to(forest.grid.load_ids).sigma_p[np.ix_(perm, perm)] @ hg_inv
    got = analytic_sigma_eps(forest, model, variant="dc")[np.ix_(perm, perm)]
    np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_analytic_lc_matches_dense_oracle(seed):
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 2).aligned_to(grid.load_ids)
    from gridtop.grid import weighted_laplacians

    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    a = np.linalg.inv(wl.h_inv_r)
    b = np.linalg.inv(wl.h_inv_x)
    sp = model.sigma_p[np.ix_(perm, perm)]
    sq = model.sigma_q[np.ix_(perm, perm)]
    spq = model.sigma_pq[np.ix_(perm, perm)]
    cross = a @ spq @ b
    dense = a @ sp @ a + b @ sq @ b + cross + cross.T
    got = analytic_sigma_eps(forest, model)[np.ix_(perm, perm)]
    np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-18)


def test_swap_identity_maps_theta_onto_eps():
    # Swapping every edge's r and x while negating the reactive injection
    # maps the phase-moment formula onto the deviation-moment formula.
    rng = np.random.default_rng(4)
    for seed in range(5):
        grid, forest = random_instance(seed)
        model = random_a1_model(forest, seed + 10)
        swapped_edges = [(e.u, e.v, e.x, e.r) for e in grid.edges]
        nodes_spec = [(n.id, n.kind) for n in grid.nodes]
        grid2, forest2 = make_grid(nodes_spec, swapped_edges, closed=list(forest.closed_edges))
        model_neg_q = InjectionModel(
            nodes=model.nodes, mu_p=model.mu_p, mu_q=-model.mu_q,
            sigma_p=model.sigma_p, sigma_q=model.sigma_q, sigma_pq=-model.sigma_pq)
        np.testing.assert_allclose(
            analytic_sigma_theta(forest, model),
            analytic_sigma_eps(forest2, model_neg_q),
            rtol=1e-10, atol=1e-18)


def test_monte_carlo_matches_analytic_theta(fig3):
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    batch = sample_injections(model, 60_000, seed=9)
    volt = lcpf_solve_many(forest, batch.p, batch.q)
    hat = empirical_moments(volt)
    exact = analytic_sigma_theta(forest, model)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(hat.sigma_theta - exact)) < 0.05 * scale
    exact_te = analytic_sigma_theta_eps(forest, model)
    assert np.max(np.abs(hat.sigma_theta_eps - exact_te)) < 0.05 * np.max(np.abs(exact_te))


# -- expected squared difference ------------------------------------------------


def test_expected_sq_diff_leaf_singleton():
    grid, forest = single_edge_grid(r=0.4, x=0.2)
    model = InjectionModel(nodes=(1,), mu_p=[-0.01], mu_q=[-0.003],
                           sigma_p=[[4e-4]], sigma_q=[[1e-4]], sigma_pq=[[1.5e-4]])
    want = 0.4 ** 2 * 4e-4 + 0.2 ** 2 * 1e-4 + 2 * 0.4 * 0.2 * 1.5e-4
    assert expected_sq_diff(forest, model, 1, 0) == pytest.approx(want, rel=1e-12)
    g = 0.4 / (0.4 ** 2 + 0.2 ** 2)
    assert expected_sq_diff(forest, model, 1, 0, variant="dc") == pytest.approx(4e-4 / g ** 2, rel=1e-12)


def test_expected_sq_diff_rejects_non_parent(fig3):
    grid, forest = fig3
    model = default_model(forest)
    with pytest.raises(DomainError, match="not the parent"):
        expected_sq_diff(forest, model, 2, 3)


@pytest.mark.parametrize("child", [0, 99])
def test_expected_sq_diff_rejects_a_child_that_is_not_a_load(fig3, child):
    grid, forest = fig3
    with pytest.raises(DomainError, match=f"node {child} is not a load of the forest"):
        expected_sq_diff(forest, default_model(forest), child, None)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_expected_sq_diff_equals_quadratic_form(seed):
    # Direct double sum over descendants against the quadratic form
    # of the analytic moment matrix, for every adjacent pair, both variants.
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 3)
    idx = grid.load_index
    for variant in ("lc", "dc"):
        sigma = analytic_sigma_eps(forest, model, variant=variant)
        for child, parent in forest.parent.items():
            want = sigma[idx[child], idx[child]]
            if not grid.is_substation(parent):
                want += sigma[idx[parent], idx[parent]] - 2 * sigma[idx[child], idx[parent]]
            got = expected_sq_diff(forest, model, child, parent, variant=variant)
            assert got == pytest.approx(want, rel=1e-10)


def test_expected_sq_diff_monte_carlo(fig3):
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    batch = sample_injections(model, 60_000, seed=31)
    volt = lcpf_solve_many(forest, batch.p, batch.q)
    idx = grid.load_index
    child, parent = 3, 2
    d = volt.eps[:, idx[child]] - volt.eps[:, idx[parent]]
    hat = float(np.mean(d * d))
    want = expected_sq_diff(forest, model, child, parent)
    assert hat == pytest.approx(want, rel=0.05)


# -- ordering -------------------------------------------------------------------


def test_cross_tree_moment_block_is_zero_without_cross_coupling():
    # With zero-mean injections and tree-block-diagonal moment matrices the
    # analytic voltage moments carry no cross-tree entries at all.
    from conftest import two_tree_grid

    grid, forest = two_tree_grid()
    idx = grid.load_index
    model = InjectionModel(nodes=grid.load_ids, mu_p=np.zeros(2), mu_q=np.zeros(2),
                           sigma_p=np.eye(2) * 1e-4, sigma_q=np.eye(2) * 1e-5,
                           sigma_pq=np.eye(2) * 2e-5)
    for variant in ("lc", "dc"):
        sigma = analytic_sigma_eps(forest, model, variant=variant)
        assert sigma[idx[2], idx[3]] == 0.0
        assert sigma[idx[3], idx[2]] == 0.0
        assert sigma[idx[2], idx[2]] > 0.0


def test_moment_ordering_chain_has_no_violations():
    grid, forest = chain_grid(5, seed=1)
    model = default_model(forest)
    assert verify_moment_ordering(forest, model, variant="lc") == []
    assert verify_moment_ordering(forest, model, variant="dc") == []


def test_moment_ordering_two_node_frozen_example():
    grid, forest = make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD)],
        [(1, 2, 1.0, 1e-9), (2, 0, 1.0, 1e-9)],
        closed=[0, 1],
    )
    model = InjectionModel(nodes=(1, 2), mu_p=np.full(2, -0.01), mu_q=np.full(2, -0.003),
                           sigma_p=np.full((2, 2), 1e-4) + np.eye(2) * 1e-4,
                           sigma_q=np.full((2, 2), 1e-5) + np.eye(2) * 1e-5,
                           sigma_pq=np.full((2, 2), 2e-5))
    assert verify_moment_ordering(forest, model, variant="dc") == []


def test_moment_ordering_gates_on_assumption1(fig3):
    grid, forest = fig3
    n = grid.n_loads
    sigma_p = np.eye(n) * 1e-4
    sigma_p[0, 1] = sigma_p[1, 0] = -1e-5  # negative same-tree cross moment
    model = InjectionModel(nodes=grid.load_ids, mu_p=np.zeros(n), mu_q=np.zeros(n),
                           sigma_p=sigma_p, sigma_q=np.eye(n) * 1e-5,
                           sigma_pq=np.eye(n) * 2e-5)
    with pytest.raises(AssumptionViolation) as excinfo:
        verify_moment_ordering(forest, model)
    assert excinfo.value.pairs


# -- per-tree evaluation against dense oracles -------------------------------------


def _multi_tree_instance(seed):
    from gridtop.harness import generate_random_grid

    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k + 3, 30))
    return generate_random_grid(n, k, int(rng.integers(k - 1, k + 5)), seed=int(rng.integers(2**32)))


def _cross_tree_model(forest, seed):
    """Explicit model with dense cross-tree covariance and non-central means."""
    rng = np.random.default_rng(seed)
    n = forest.grid.n_loads
    f = rng.normal(size=(2 * n, 2 * n + 3)) * 1e-3
    joint = f @ f.T
    return InjectionModel.from_covariances(
        forest.grid.load_ids, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.0, 0.004, n),
        joint[:n, :n], joint[n:, n:], joint[:n, n:])


def _dense_moments(forest, model, variant):
    """The three moment matrices from dense inverses of the weighted
    Laplacians, in the Laplacians' tree-major node order."""
    from gridtop.grid import weighted_laplacians

    wl = weighted_laplacians(forest)
    perm = [forest.grid.load_index[n] for n in wl.node_order]
    mod = model.aligned_to(forest.grid.load_ids)
    sp, sq, spq = (m[np.ix_(perm, perm)] for m in (mod.sigma_p, mod.sigma_q, mod.sigma_pq))
    if variant == "dc":
        g = np.linalg.inv(wl.h_g)
        return perm, (g @ sp @ g, g @ sq @ g, -g @ spq.T @ g)
    a = np.linalg.inv(wl.h_inv_r)
    b = np.linalg.inv(wl.h_inv_x)
    eps_cross = a @ spq @ b
    theta_cross = b @ spq @ a
    return perm, (a @ sp @ a + b @ sq @ b + eps_cross + eps_cross.T,
                  b @ sp @ b + a @ sq @ a - theta_cross - theta_cross.T,
                  b @ sp @ a - a @ sq @ b + b @ spq @ b - a @ spq.T @ a)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["lc", "dc"]), st.sampled_from(["a1", "cross", "reordered"]))
def test_per_tree_moments_match_dense_inverse_oracle(seed, variant, kind):
    from gridtop.moments import analytic_moment_set

    grid, forest = _multi_tree_instance(seed)
    if kind == "cross":
        model = _cross_tree_model(forest, seed + 5)
    else:
        model = random_a1_model(forest, seed + 7)
        if kind == "reordered":
            model = model.aligned_to(reversed(grid.load_ids))
            assert model.nodes != grid.load_ids
    perm, dense = _dense_moments(forest, model, variant)
    mset = analytic_moment_set(forest, model, variant)
    assert mset.nodes == grid.load_ids
    singles = (analytic_sigma_eps, analytic_sigma_theta, analytic_sigma_theta_eps)
    for got, want, single in zip((mset.sigma_eps, mset.sigma_theta, mset.sigma_theta_eps), dense, singles):
        scale = np.abs(want).max()
        np.testing.assert_allclose(got[np.ix_(perm, perm)], want, rtol=1e-9, atol=1e-12 * scale)
        assert np.array_equal(single(forest, model, variant), got)


def _coupled_trees_model(forest, seed):
    """Explicit model with nonzero means whose covariance couples the first
    two trees that hold loads; every other tree is a block of its own."""
    rng = np.random.default_rng(seed)
    tree = forest.load_tree_index
    n = len(tree)
    trees = [k for k in range(forest.n_trees) if (tree == k).any()]
    groups = [np.flatnonzero(np.isin(tree, trees[:2]))] + [np.flatnonzero(tree == k) for k in trees[2:]]
    joint = np.zeros((2 * n, 2 * n))
    for members in groups:
        both = np.concatenate([members, n + members])
        f = rng.normal(size=(len(both), len(both) + 2)) * 1e-3
        joint[np.ix_(both, both)] = f @ f.T
    return InjectionModel.from_covariances(
        forest.grid.load_ids, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.0, 0.004, n),
        joint[:n, :n], joint[n:, n:], joint[:n, n:])


ORACLE_GRIDS = ("multi_tree", "empty_substation", "shuffled_chain", "star")


def _oracle_forest(seed, grid_kind):
    if grid_kind == "empty_substation":
        return empty_substation_grid()[1]
    if grid_kind == "shuffled_chain":
        return shuffled_chain_grid(3 + seed % 30, seed)[1]
    if grid_kind == "star":
        return star_grid(5 + seed % 20, seed)[1]
    return _multi_tree_instance(seed)[1]


def _oracle_case(seed, grid_kind, model_kind):
    forest = _oracle_forest(seed, grid_kind)
    if model_kind == "coupled":
        return forest, _coupled_trees_model(forest, seed + 11)
    return forest, random_a1_model(forest, seed + 13)


def _check_against_dense_inverses(seed, grid_kind, model_kind, variant):
    forest, model = _oracle_case(seed, grid_kind, model_kind)
    perm, dense = _dense_moments(forest, model, variant)
    singles = (analytic_sigma_eps, analytic_sigma_theta, analytic_sigma_theta_eps)
    for single, want in zip(singles, dense):
        got = single(forest, model, variant)[np.ix_(perm, perm)]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_analytic_lc_phase_moments_match_dense_oracle(seed, grid_kind, model_kind):
    _check_against_dense_inverses(seed, grid_kind, model_kind, "lc")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_analytic_dc_phase_moments_match_dense_oracle(seed, grid_kind, model_kind):
    _check_against_dense_inverses(seed, grid_kind, model_kind, "dc")


def test_coupled_trees_model_couples_exactly_two_trees():
    from gridtop.moments import _components

    grid, forest = _multi_tree_instance(4)
    model = _coupled_trees_model(forest, 4)
    coupled = (model.omega_p != 0) | (model.omega_q != 0) | (model.omega_pq != 0)
    tree = forest.load_tree_index
    comps = [np.unique(tree[c]).tolist() for c in _components(coupled | coupled.T)]
    assert sorted(comps) == [[0, 1]] + [[k] for k in range(2, forest.n_trees) if (tree == k).any()]
    assert (model.mu_p != 0).all() and (model.mu_q != 0).all()


@pytest.mark.parametrize("variant", ["lc", "dc"])
def test_analytic_phase_moments_are_computed_on_first_read(monkeypatch, variant):
    from gridtop import moments

    grid, forest = _multi_tree_instance(5)
    model = random_a1_model(forest, 5)
    eager, _ = moments._edge_moments(forest, model, variant, ("sigma_eps", "sigma_theta", "sigma_theta_eps"))
    calls = []

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    real = moments._edge_moments
    monkeypatch.setattr(moments, "_edge_moments", counting)
    mset = moments.analytic_moment_set(forest, model, variant)
    assert calls == [("sigma_eps",)]
    assert np.array_equal(mset.sigma_theta_eps, eager["sigma_theta_eps"])
    assert calls == [("sigma_eps",), ("sigma_theta", "sigma_theta_eps")]
    for name, matrix in eager.items():
        assert np.array_equal(getattr(mset, name), matrix)
        assert getattr(mset, name) is getattr(mset, name)
    assert len(calls) == 2


def test_deferred_moments_are_shape_checked_on_first_read():
    from gridtop.moments import MomentSet, _Deferred

    phases = _Deferred(lambda: {"sigma_theta": np.eye(2), "sigma_theta_eps": np.eye(3)})
    mset = MomentSet(nodes=(1, 2), sigma_eps=np.eye(2), sigma_theta=phases, sigma_theta_eps=phases,
                     source="analytic")
    assert np.array_equal(mset.sigma_theta, np.eye(2))
    with pytest.raises(DomainError, match="sigma_theta_eps must have shape"):
        mset.sigma_theta_eps


def test_analytic_moments_reject_unknown_variant(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError, match="unknown variant"):
        analytic_sigma_eps(forest, default_model(forest), variant="ac")


# -- block-wise PSD check ---------------------------------------------------------


def _joint_min_eig(model):
    return np.linalg.eigvalsh(model.joint_covariance).min()


def test_blockwise_psd_eigenvalues_equal_full_eigvalsh():
    from gridtop.moments import _components

    for seed in range(8):
        grid, forest = _multi_tree_instance(seed)
        for model in (random_a1_model(forest, seed), default_model(forest), _cross_tree_model(forest, seed)):
            op, oq, opq = model.omega_p, model.omega_q, model.omega_pq
            coupled = (op != 0) | (oq != 0) | (opq != 0)
            coupled |= coupled.T
            parts = []
            for comp in _components(coupled):
                ix = np.ix_(comp, comp)
                parts.append(np.linalg.eigvalsh(np.block([[op[ix], opq[ix]], [opq[ix].T, oq[ix]]])))
            blockwise = np.sort(np.concatenate(parts))
            full = np.linalg.eigvalsh(model.joint_covariance)
            np.testing.assert_allclose(blockwise, full, rtol=0, atol=1e-12 * np.abs(full).max())


def test_default_model_components_are_the_trees():
    from gridtop.moments import _components

    grid, forest = _multi_tree_instance(3)
    model = default_model(forest)
    coupled = model.omega_p != 0
    comps = sorted(tuple(c) for c in _components(coupled | coupled.T))
    tree = forest.load_tree_index
    assert comps == sorted(tuple(np.flatnonzero(tree == k)) for k in range(forest.n_trees))


def test_psd_check_rejects_model_indefinite_inside_one_tree():
    grid, forest = _multi_tree_instance(11)
    good = random_a1_model(forest, 11)
    tree = forest.load_tree_index
    members = np.flatnonzero(tree == 1)
    i, j = members[:2]
    omega_p = good.omega_p.copy()
    bump = 10.0 * max(omega_p[i, i], omega_p[j, j])
    omega_p[i, j] += bump
    omega_p[j, i] += bump
    args = (good.nodes, good.mu_p, good.mu_q, omega_p, good.omega_q, good.omega_pq)
    scale = np.abs(omega_p).max()
    joint = np.block([[omega_p, good.omega_pq], [good.omega_pq.T, good.omega_q]])
    assert np.linalg.eigvalsh(joint).min() < -1e-10 * max(1.0, scale)
    with pytest.raises(ModelError, match="positive semidefinite"):
        InjectionModel.from_covariances(*args)


def test_psd_check_treats_cross_tree_coupling_as_one_block():
    # Each tree's own block is PSD, but the cross-tree covariance makes the
    # joint matrix indefinite: only a check over the coupled block sees it.
    from conftest import two_tree_grid

    grid, forest = two_tree_grid()
    omega_p = np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e-4
    for block in (omega_p[:1, :1], omega_p[1:, 1:]):
        assert np.linalg.eigvalsh(block).min() >= 0
    with pytest.raises(ModelError, match="positive semidefinite"):
        InjectionModel.from_covariances(grid.load_ids, np.zeros(2), np.zeros(2),
                                        omega_p, np.eye(2) * 1e-4, np.zeros((2, 2)))
    coupled = InjectionModel.from_covariances(grid.load_ids, np.zeros(2), np.zeros(2),
                                              np.array([[1.0, 0.5], [0.5, 1.0]]) * 1e-4,
                                              np.eye(2) * 1e-4, np.zeros((2, 2)))
    assert _joint_min_eig(coupled) > 0


def _joint_with_min_eigenvalue(n, seed, target):
    """A symmetric 2n x 2n matrix with entries below 1 (so the PSD check's
    scale is 1) whose smallest eigenvalue is ``target``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    spectrum = np.concatenate([[0.0], rng.uniform(1e-3, 1.0 / (2 * n), 2 * n - 1)])
    joint = (q * spectrum) @ q.T + target * np.eye(2 * n)
    return (joint + joint.T) / 2


@pytest.mark.parametrize("n", [3, 40])
def test_psd_check_verdict_is_the_eigenvalue_verdict(monkeypatch, n):
    # Blocks whose smallest eigenvalue sits 0.5, 2 and 10 thresholds above
    # and below the rejection threshold -1e-10: the model must accept exactly
    # those eigvalsh accepts, and eigvalsh decides every block.
    from gridtop import moments

    threshold = moments._PSD_SLACK
    real_eigvalsh = np.linalg.eigvalsh
    eig_calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eig_calls.append(len(a)) or real_eigvalsh(a))
    nodes = tuple(range(1, n + 1))
    for k in (-10, -2, -0.5, 0.5, 2, 10):
        joint = _joint_with_min_eigenvalue(n, n, (k - 1) * threshold)
        assert np.abs(joint).max() < 1.0
        rejected_by_eigvalsh = real_eigvalsh(joint).min() < -threshold
        assert rejected_by_eigvalsh == (k < 0)
        eig_calls.clear()
        args = (nodes, np.zeros(n), np.zeros(n), joint[:n, :n], joint[n:, n:], joint[:n, n:])
        if rejected_by_eigvalsh:
            with pytest.raises(ModelError, match="positive semidefinite"):
                InjectionModel.from_covariances(*args)
        else:
            InjectionModel.from_covariances(*args)
        assert eig_calls == [2 * n]


def test_model_rejects_non_finite_means():
    with pytest.raises(ModelError, match="mean vectors"):
        InjectionModel(nodes=(1, 2), mu_p=np.array([np.nan, 0.0]), mu_q=np.zeros(2),
                       sigma_p=np.eye(2), sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))


# -- vectorised model functions against their loop forms ---------------------------


def _default_model_loop(forest, **params):
    return InjectionModel.from_covariances(**_default_covariances_loop(forest, **params))


def _default_covariances_loop(forest, mu_p=-0.005, sigma_ratio=0.2, rho=0.1, q_alpha=0.3, q_noise_ratio=0.2):
    nodes = forest.grid.load_ids
    n = len(nodes)
    sig = sigma_ratio * abs(mu_p)
    omega_p = np.zeros((n, n))
    same_tree = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            same_tree[i, j] = forest.tree_of[a] == forest.tree_of[b]
    omega_p[same_tree] = rho * sig * sig
    np.fill_diagonal(omega_p, sig * sig * (1.0 + rho))
    mu_q = q_alpha * mu_p
    sig_eta = q_noise_ratio * abs(mu_q)
    omega_q = q_alpha * q_alpha * omega_p + np.eye(n) * sig_eta * sig_eta
    omega_pq = q_alpha * omega_p
    return dict(nodes=nodes, mu_p=np.full(n, mu_p), mu_q=np.full(n, mu_q),
                omega_p=omega_p, omega_q=omega_q, omega_pq=omega_pq)


@pytest.mark.parametrize("seed", range(6))
def test_default_model_equals_loop_oracle(seed):
    grid, forest = _multi_tree_instance(seed)
    params = {} if seed % 2 else {"sigma_ratio": 0.8, "rho": 0.3}
    got = default_model(forest, **params)
    want = _default_model_loop(forest, **params)
    assert got.nodes == want.nodes
    for name in ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


# 1 +- 1e-3 and 1 +- 1e-9 place rho at -1/n_k (1 +- ...); the others reach into the rounding band.
_FACTORS = tuple(1 + sign * gap for gap in (1e-3, 1e-6, 1e-9, 1e-12) for sign in (-1, 1))


@st.composite
def _default_model_case(draw):
    """A forest and default-model parameters that put the smallest
    eigenvalue of the joint covariance near 0 or near the rejection
    threshold, or switch off one of the model's terms."""
    forest = _oracle_forest(draw(st.integers(0, 10_000)), draw(st.sampled_from(ORACLE_GRIDS)))
    sizes = np.bincount(forest.load_tree_index)
    n_k = int(draw(st.sampled_from(sorted(set(sizes[sizes > 0].tolist())))))
    params = {
        "mu_p": draw(st.sampled_from([-0.005, 0.02]) | st.floats(-0.05, 0.05)),
        "sigma_ratio": draw(st.sampled_from([0.0, 0.2]) | st.floats(0.01, 2.0)),
        "q_alpha": draw(st.sampled_from([0.3, -0.3, 0.0]) | st.floats(-2.0, 2.0)),
        "q_noise_ratio": draw(st.sampled_from([0.0, 0.2]) | st.floats(0.0, 1.0)),
    }
    kind = draw(st.sampled_from(["eigenvalue_zero", "threshold", "zero", "tiny", "free"]))
    factor = draw(st.sampled_from(_FACTORS))
    sig2 = (params["sigma_ratio"] * params["mu_p"]) ** 2
    if kind == "eigenvalue_zero":  # s^2 (1 + rho n_k) = -s^2 (factor - 1)
        params["rho"] = -factor / n_k
    elif kind == "threshold" and sig2 > 0:
        # With no reactive noise the tree's block along 1 is a [[1, alpha], [alpha, alpha^2]],
        # with eigenvalues 0 and a (1 + alpha^2): put the second at -threshold * factor.
        params["q_noise_ratio"] = 0.0
        a = -_PSD_SLACK * factor / (1.0 + params["q_alpha"] ** 2)
        params["rho"] = (a / sig2 - 1.0) / n_k
    elif kind == "tiny":  # rho s^2 may round away next to mu^2
        params["rho"] = draw(st.sampled_from([1e-12, 1e-16, -1e-18]))
    elif kind == "zero":
        params["rho"] = 0.0
    else:
        params["rho"] = draw(st.floats(-1.0, 1.0))
    return forest, params


@settings(max_examples=300, deadline=None)
@given(_default_model_case())
def test_default_model_verdict_equals_the_generic_check(case):
    # The closed-form verdict against the generic one (eigvalsh per
    # component) on the same parameters.  Both judge omega as read back from
    # the model, sigma - mu mu^T.  They may disagree only when the smallest
    # eigenvalue of that joint matrix lies within BAND of -threshold, where
    # BAND = (2N)^2 * eps * max|omega entry| (N loads, eps the unit
    # roundoff) bounds eigvalsh's error on the 2N x 2N matrix and, more
    # loosely, the closed form's.  Otherwise both accept with the same bytes
    # and components, or both reject.
    forest, params = case
    args = _default_covariances_loop(forest, **params)
    mp, mq = args["mu_p"], args["mu_q"]
    omegas = [(args[name] + np.outer(left, right)) - np.outer(left, right)
              for name, left, right in (("omega_p", mp, mp), ("omega_q", mq, mq), ("omega_pq", mp, mq))]
    entries = max(float(np.abs(w).max()) for w in omegas)
    threshold = _PSD_SLACK * max(1.0, entries)
    joint = np.block([[omegas[0], omegas[2]], [omegas[2].T, omegas[1]]])
    smallest = np.linalg.eigvalsh(joint).min()
    band = len(joint) ** 2 * np.finfo(float).eps * entries

    verdicts = []
    for build in (lambda: _default_model_loop(forest, **params), lambda: default_model(forest, **params)):
        try:
            verdicts.append(build())
        except ModelError as exc:
            assert "positive semidefinite" in str(exc)
            verdicts.append(None)
    want, got = verdicts
    if abs(smallest + threshold) <= band:
        return  # within rounding of the threshold: either verdict is right
    assert (got is None) == (want is None) == (smallest < -threshold)
    if got is None:
        return
    for name in ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
    assert len(got.components) == len(want.components)
    for mine, theirs in zip(got.components, want.components):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
       st.tuples(*[st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)] * 3))
def test_tree_verdict_equals_the_generic_check_on_any_tree_structured_omegas(tree, diagonal, within):
    # Any omega_p, omega_q, omega_pq that hold one value on the diagonal,
    # one within a tree and zero across trees, with zero means; the band is
    # the one stated above.
    from gridtop.moments import _tree_verdict

    tree = np.array(tree)
    n = len(tree)
    same_tree = tree[:, None] == tree[None, :]
    omegas = []
    for d, w in zip(diagonal, within):
        omega = np.where(same_tree, w, 0.0)
        np.fill_diagonal(omega, d)
        omegas.append(omega)
    joint = np.block([[omegas[0], omegas[2]], [omegas[2].T, omegas[1]]])
    smallest = np.linalg.eigvalsh(joint).min()
    entries = float(np.abs(joint).max())
    threshold = _PSD_SLACK * max(1.0, entries)
    verdicts = []
    for judge in (lambda: InjectionModel.from_covariances(range(1, n + 1), np.zeros(n), np.zeros(n), *omegas),
                  lambda: _tree_verdict(tree, diagonal, within)):
        try:
            verdicts.append(judge())
        except ModelError:
            verdicts.append(None)
    generic, closed = verdicts
    if abs(smallest + threshold) <= len(joint) ** 2 * np.finfo(float).eps * entries:
        return
    assert (generic is None) == (closed is None) == (smallest < -threshold)
    if closed is not None:
        assert [c.tolist() for c in closed] == [c.tolist() for c in generic.components]


def test_default_model_components_follow_the_rounded_coupling():
    # rho s^2 = 1e-22 vanishes next to mu^2 = 2.5e-5, so sigma - mu mu^T is
    # diagonal and every load is a component of its own, as in the generic
    # check; rho = 1e-12 keeps the trees coupled.
    forest = _multi_tree_instance(3)[1]
    tree = forest.load_tree_index
    lone = default_model(forest, rho=1e-16)
    assert [c.tolist() for c in lone.components] == [[i] for i in range(len(tree))]
    coupled = default_model(forest, rho=1e-12)
    assert sorted(c.tolist() for c in coupled.components) == sorted(
        np.flatnonzero(tree == k).tolist() for k in range(forest.n_trees) if (tree == k).any())


def _violations_loop(forest, model):
    mod = model.aligned_to(forest.grid.load_ids)
    nodes = mod.nodes
    bad = []
    for i, a in enumerate(nodes):
        for j in range(i, len(nodes)):
            b = nodes[j]
            if forest.tree_of[a] != forest.tree_of[b]:
                continue
            for name, mat in (("sigma_p", mod.sigma_p), ("sigma_q", mod.sigma_q), ("sigma_pq", mod.sigma_pq)):
                if mat[i, j] <= 0 or (name == "sigma_pq" and mat[j, i] <= 0):
                    bad.append((a, b, name))
    return bad


@pytest.mark.parametrize("seed", range(6))
def test_assumption1_violations_equal_loop_oracle(seed):
    # Means of mixed sign make entries of all three non-central matrices
    # negative, and unequal p/q means make sigma_pq asymmetric.
    grid, forest = _multi_tree_instance(seed)
    rng = np.random.default_rng(seed)
    n = grid.n_loads
    small = np.eye(n) * 1e-8
    model = InjectionModel.from_covariances(grid.load_ids, rng.normal(0, 0.01, n), rng.normal(0, 0.01, n),
                                            small, small, np.zeros((n, n)))
    model = model.aligned_to(reversed(grid.load_ids))
    got = assumption1_violations(forest, model)
    assert got == _violations_loop(forest, model)
    assert {name for _, _, name in got} == {"sigma_p", "sigma_q", "sigma_pq"}
    assert all(isinstance(a, int) and isinstance(b, int) for a, b, _ in got)


# -- the analytic pair statistic in edge coordinates -------------------------------


def _pair_case(seed, grid_kind, model_kind):
    forest, model = _oracle_case(seed, grid_kind, model_kind)
    return forest, model, analytic_moment_set(forest, model, "lc" if seed % 2 else "dc")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_pair_statistic_equals_expected_sq_diff_on_tree_edges(seed, grid_kind, model_kind):
    forest, model, mset = _pair_case(seed, grid_kind, model_kind)
    variant = "lc" if seed % 2 else "dc"
    idx = forest.grid.load_index
    for child, parent in forest.parent.items():
        want = expected_sq_diff(forest, model, child, parent, variant)
        if parent in idx:
            got = mset.drops.sq_diff(idx[child], idx[parent])
            assert got == mset.drops.sq_diff(idx[parent], idx[child])
        else:  # a substation's deviation is 0: the learner reads the diagonal
            got = mset.sigma_eps[idx[child], idx[child]]
        assert abs(got - want) <= 1e-14 * abs(want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_pair_statistic_matches_the_dense_path_form(seed, grid_kind, model_kind):
    # u^T Delta u with u = D[:, a] - D[:, b] from a dense subtree indicator
    # D, on every pair of loads: adjacent, within a tree and across trees.
    import scalar_oracles as oracle

    forest, model, mset = _pair_case(seed, grid_kind, model_kind)
    delta = oracle.dense_drop_moments(forest, model, "lc" if seed % 2 else "dc")
    d = oracle.subtree_indicator(forest)
    n = forest.grid.n_loads
    for i in range(n):
        for j in range(n):
            u = d[:, i] - d[:, j]
            want = u @ delta @ u
            got = mset.drops.sq_diff(i, j)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15 * np.abs(delta).max()), (i, j)


def test_pair_statistic_oracle_cases_reach_every_branch():
    # The cases above must include the pairs the statistic treats apart:
    # two blocks, two trees in one coupled block, and paths of many lines.
    from gridtop import moments

    forest, model = _oracle_case(3, "multi_tree", "coupled")
    assert forest.n_trees >= 3
    assert len(moments._block_plans(forest, model)) == forest.n_trees - 1  # the first two share a block
    forest, _ = _oracle_case(8, "shuffled_chain", "a1")
    assert max(forest.depth.values()) >= 10


def test_analytic_moments_build_no_path_sum_matrix(monkeypatch):
    from gridtop import grid as grid_module
    from gridtop import moments, powerflow

    def refuse(*args, **kwargs):
        raise AssertionError("a dense response or path-sum matrix was built")

    for module, name in ((powerflow, "lcpf_response"), (powerflow, "path_sum_matrix"),
                         (moments, "path_sum_matrix"), (grid_module, "path_sum_matrix")):
        monkeypatch.setattr(module, name, refuse)
    grid, forest = _multi_tree_instance(7)
    for model in (default_model(forest), _coupled_trees_model(forest, 7)):
        for variant in ("lc", "dc"):
            mset = moments.analytic_moment_set(forest, model, variant)
            assert mset.sigma_theta.shape == mset.sigma_theta_eps.shape == mset.sigma_eps.shape
            verify_moment_ordering(forest, default_model(forest), variant)


def test_hand_built_moment_sets_carry_no_pair_statistic(fig3):
    grid, forest = fig3
    mset = analytic_moment_set(forest, default_model(forest))
    assert mset.drops is not None
    plain = type(mset)(nodes=mset.nodes, sigma_eps=mset.sigma_eps, sigma_theta=None, sigma_theta_eps=None,
                       source="analytic")
    assert plain.drops is None
    assert plain == type(mset)(nodes=mset.nodes, sigma_eps=mset.sigma_eps, sigma_theta=None,
                               sigma_theta_eps=None, source="analytic", drops=mset.drops)
    assert "drops" not in repr(plain)


# -- input checks -------------------------------------------------------------------


@pytest.mark.parametrize("doc, key", [('{"mu_p": NaN}', "mu_p"), ('{"sigma_ratio": Infinity}', "sigma_ratio"),
                                      ('{"rho": -Infinity}', "rho"), ('{"q_alpha": 1e400}', "q_alpha")])
def test_default_model_document_rejects_non_finite_parameters(fig3, doc, key):
    import json

    with pytest.raises(ParseError, match=f"^model.{key}: expected a finite number"):
        model_from_dict(json.loads(doc), fig3[1])


@pytest.mark.parametrize("key", ["mu_p", "sigma_ratio", "rho", "q_alpha", "q_noise_ratio"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400, "x"])
def test_default_model_rejects_non_finite_parameters(fig3, key, value):
    with pytest.raises(DomainError, match=f"parameter {key} must be finite"):
        default_model(fig3[1], **{key: value})


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None, np.float64(4)])
def test_sampling_rejects_a_non_integer_count(fig3, count):
    with pytest.raises(DomainError, match="sample count must be an integer"):
        sample_injections(default_model(fig3[1]), count, seed=1)


def test_sampling_accepts_numpy_integers_with_the_same_draws(fig3):
    model = default_model(fig3[1])
    plain = sample_injections(model, 40, seed=5)
    for count in (np.int64(40), np.int32(40)):
        batch = sample_injections(model, count, seed=5)
        assert np.array_equal(batch.p, plain.p) and np.array_equal(batch.q, plain.q)
    with pytest.raises(DomainError, match="at least 1"):
        sample_injections(model, np.int64(0), seed=5)
