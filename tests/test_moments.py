"""Sampling, empirical moments, analytic moment formulas, and the moment
identities behind the learner."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError, ModelError, ParseError
from gridtop.grid import LOAD, SUBSTATION
from gridtop.moments import (
    _PSD_SLACK,
    InjectionModel,
    MomentSet,
    analytic_moment_set,
    assumption1_violations,
    default_model,
    empirical_moments,
    model_from_dict,
    model_to_dict,
    sample_injections,
)
from gridtop.powerflow import VoltageSamples, lcpf_response, lcpf_solve_many

from conftest import (chain_grid, covariance_moments, empty_substation_grid, make_grid, model_from_covariances,
                      random_a1_model, random_instance, shuffled_chain_grid, single_edge_grid, star_grid)
from dense_oracles import expected_sq_diff, verify_moment_ordering, weighted_laplacians
from scalar_oracles import scalar_sweep


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
        model_from_covariances(nodes, np.zeros(2), np.zeros(2),
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


@pytest.mark.parametrize("name, value, message", [
    *((name, value, f"{name} must have shape (3, 3), got {shape}")
      for name in ("sigma_p", "sigma_q", "sigma_pq")
      for value, shape in ((0.5, "()"), (np.full(3, 0.5), "(3,)"), (np.eye(2), "(2, 2)"))),
    ("mu_p", np.zeros(2), "mean vectors must have shape (3,)"),
    ("mu_q", np.zeros(4), "mean vectors must have shape (3,)"),
])
def test_model_refuses_mis_shaped_entries(name, value, message):
    fields = dict(mu_p=np.zeros(3), mu_q=np.zeros(3), sigma_p=np.eye(3), sigma_q=np.eye(3), sigma_pq=np.zeros((3, 3)))
    fields[name] = value
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        InjectionModel(nodes=(1, 2, 3), **fields)


def test_model_keeps_float_arrays_without_a_copy():
    fields = dict(mu_p=np.zeros(2), mu_q=np.zeros(2), sigma_p=np.eye(2), sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))
    model = InjectionModel(nodes=(1, 2), **fields)
    assert model.mu_p is fields["mu_p"] and model.mu_q is fields["mu_q"]
    # The moments are kept as storage-group blocks: each read rebuilds a new
    # array with the given bits.
    for name in ("sigma_p", "sigma_q", "sigma_pq"):
        assert getattr(model, name) is not fields[name]
        assert np.array_equal(_bits(getattr(model, name)), _bits(fields[name]))


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
    model = model_from_covariances(
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


@pytest.mark.parametrize("name", ["bus_13_3", "bus_29_1", "bus_83_11"])
def test_sampler_draws_have_the_bits_of_the_eigh_multivariate_normal(name):
    """One factor, reused buffers, draws of every size in turn: each batch
    equals ``multivariate_normal(method="eigh")`` bit for bit, and so does a
    fresh ``sample_injections`` batch."""
    from gridtop.fixtures import load_fixture
    from gridtop.moments import _Sampler

    forest = load_fixture(name)[1]
    for model in (default_model(forest), random_a1_model(forest, 3)):
        mean = np.concatenate([model.mu_p, model.mu_q])
        sampler = _Sampler(model, 3200)
        for seed in range(5):
            for m in (1, 7, 200, 3200):
                want = np.random.default_rng(seed).multivariate_normal(mean, model.joint_covariance, size=m,
                                                                       method="eigh")
                for batch in (sampler.draw(m, seed), sample_injections(model, m, seed)):
                    assert np.array_equal(np.hstack([batch.p, batch.q]).view(np.int64), want.view(np.int64))


# -- empirical moments --------------------------------------------------------


def test_empirical_moments_single_sample_outer_product():
    samples = VoltageSamples(nodes=(1, 2), eps=np.array([[1.0, 2.0]]))
    mset = empirical_moments(samples)
    np.testing.assert_allclose(mset.sigma_eps, [[1.0, 2.0], [2.0, 4.0]])
    assert mset.m == 1


def test_empirical_moments_zero_samples_zero_matrix():
    samples = VoltageSamples(nodes=(1, 2), eps=np.zeros((9, 2)))
    mset = empirical_moments(samples)
    assert not mset.sigma_eps.any()


def test_empirical_moments_empty_set_rejected():
    with pytest.raises(DomainError, match="empty"):
        empirical_moments(VoltageSamples(nodes=(1, 2), eps=np.zeros((0, 2))))


def test_empirical_moments_refuse_a_moment_that_overflows():
    samples = VoltageSamples(nodes=(1, 2), eps=np.array([[1e200, 1e200], [1e200, 2e200]]))
    with pytest.raises(DomainError, match=r"^moment entry of nodes \(1, 1\) is not finite$"):
        empirical_moments(samples)  # under the suite's error::RuntimeWarning filter: no overflow warning first


def test_empirical_moments_take_only_a_batch():
    samples = VoltageSamples(nodes=(1, 2), eps=np.ones((3, 2)))
    with pytest.raises(DomainError, match="expected a VoltageSamples batch"):
        empirical_moments(iter(samples.eps))


def test_empirical_moments_converge_to_analytic(fig3):
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    exact = analytic_moment_set(forest, model).sigma_eps

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
    sigma = analytic_moment_set(forest, model, variant="dc").sigma_eps
    np.testing.assert_allclose(sigma, [[5.0, 3.0], [3.0, 2.0]], rtol=1e-8)


def test_analytic_sigma_eps_zero_model_is_zero(fig3):
    grid, forest = fig3
    model = _zero_model(grid.load_ids)
    assert not analytic_moment_set(forest, model).sigma_eps.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_analytic_dc_matches_dense_oracle(seed):
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 1)
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    hg_inv = np.linalg.inv(wl.h_g)
    dense = hg_inv @ model.aligned_to(forest.grid.load_ids).sigma_p[np.ix_(perm, perm)] @ hg_inv
    got = analytic_moment_set(forest, model, variant="dc").sigma_eps[np.ix_(perm, perm)]
    np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_analytic_lc_matches_dense_oracle(seed):
    grid, forest = random_instance(seed)
    model = random_a1_model(forest, seed + 2).aligned_to(grid.load_ids)
    wl = weighted_laplacians(forest)
    perm = [grid.load_index[n] for n in wl.node_order]
    a = np.linalg.inv(wl.h_inv_r)
    b = np.linalg.inv(wl.h_inv_x)
    sp = model.sigma_p[np.ix_(perm, perm)]
    sq = model.sigma_q[np.ix_(perm, perm)]
    spq = model.sigma_pq[np.ix_(perm, perm)]
    cross = a @ spq @ b
    dense = a @ sp @ a + b @ sq @ b + cross + cross.T
    got = analytic_moment_set(forest, model).sigma_eps[np.ix_(perm, perm)]
    np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-18)


def test_swap_identity_maps_theta_onto_eps():
    # Swapping every edge's r and x while negating the reactive injection
    # maps the phases of the linear model onto its deviations.
    for seed in range(5):
        grid, forest = random_instance(seed)
        swapped_edges = [(e.u, e.v, e.x, e.r) for e in grid.edges]
        nodes_spec = [(n.id, n.kind) for n in grid.nodes]
        grid2, forest2 = make_grid(nodes_spec, swapped_edges, closed=list(forest.closed_edges))
        rng = np.random.default_rng(seed + 10)
        p, q = rng.normal(-0.01, 0.003, grid.n_loads), rng.normal(-0.003, 0.001, grid.n_loads)
        np.testing.assert_allclose(scalar_sweep(forest, p, q, "lc")[1],
                                   lcpf_solve_many(forest2, p[None], -q[None]).eps[0], rtol=1e-10, atol=1e-18)


def test_monte_carlo_matches_analytic_theta(fig3):
    # The phase moments of the linear model, from the dense inverse
    # Laplacians, against the phases theta = pB - qA of sampled injections.
    grid, forest = fig3
    model = default_model(forest, sigma_ratio=0.5)
    batch = sample_injections(model, 60_000, seed=9)
    a, b = lcpf_response(forest)
    theta = batch.p @ b - batch.q @ a
    eps = lcpf_solve_many(forest, batch.p, batch.q).eps
    perm, (_, exact, exact_te) = _dense_moments(forest, model, "lc")
    theta, eps = theta[:, perm], eps[:, perm]
    hat, hat_te = theta.T @ theta / len(theta), theta.T @ eps / len(theta)
    assert np.max(np.abs(hat - exact)) < 0.05 * np.max(np.abs(exact))
    assert np.max(np.abs(hat_te - exact_te)) < 0.05 * np.max(np.abs(exact_te))


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
        sigma = analytic_moment_set(forest, model, variant=variant).sigma_eps
        for child, parent in forest.parent.items():
            want = sigma[idx[child], idx[child]]
            if parent not in grid.substation_ids:
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
        sigma = analytic_moment_set(forest, model, variant=variant).sigma_eps
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
    with pytest.raises(ValueError, match=r"positivity assumption: sigma_p\(1,2\) <= 0"):
        verify_moment_ordering(forest, model)


# -- per-tree evaluation against dense oracles -------------------------------------


def _multi_tree_instance(seed):
    from gridtop.harness import generate_random_grid

    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k + 3, 30))
    return generate_random_grid(n, k, int(rng.integers(k - 1, k + 5)), seed=int(rng.integers(2**32)))


def _cross_tree_model(forest, seed, build=model_from_covariances):
    """Explicit model with dense cross-tree covariance and non-central means;
    ``build`` takes its means and covariances."""
    rng = np.random.default_rng(seed)
    n = forest.grid.n_loads
    f = rng.normal(size=(2 * n, 2 * n + 3)) * 1e-3
    joint = f @ f.T
    return build(forest.grid.load_ids, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.0, 0.004, n),
                 joint[:n, :n], joint[n:, n:], joint[:n, n:])


def _dense_moments(forest, model, variant):
    """The voltage, phase and phase/voltage moment matrices of the linear
    model from dense inverses of the weighted Laplacians, in the Laplacians'
    tree-major node order."""
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
    want = dense[0]
    np.testing.assert_allclose(mset.sigma_eps[np.ix_(perm, perm)], want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def _coupled_trees_model(forest, seed, build=model_from_covariances):
    """Explicit model with nonzero means whose covariance couples the first
    two trees that hold loads; every other tree is a block of its own.
    ``build`` takes its means and covariances."""
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
    return build(forest.grid.load_ids, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.0, 0.004, n),
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
    perm, (want, _, _) = _dense_moments(forest, model, variant)
    got = analytic_moment_set(forest, model, variant).sigma_eps[np.ix_(perm, perm)]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_analytic_lc_moments_match_dense_oracle_on_every_grid_kind(seed, grid_kind, model_kind):
    _check_against_dense_inverses(seed, grid_kind, model_kind, "lc")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ORACLE_GRIDS), st.sampled_from(["a1", "coupled"]))
def test_analytic_dc_moments_match_dense_oracle_on_every_grid_kind(seed, grid_kind, model_kind):
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


def test_analytic_moments_reject_unknown_variant(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError, match="unknown variant"):
        analytic_moment_set(forest, default_model(forest), variant="ac")


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
        model_from_covariances(*args)


def test_psd_check_treats_cross_tree_coupling_as_one_block():
    # Each tree's own block is PSD, but the cross-tree covariance makes the
    # joint matrix indefinite: only a check over the coupled block sees it.
    from conftest import two_tree_grid

    grid, forest = two_tree_grid()
    omega_p = np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e-4
    for block in (omega_p[:1, :1], omega_p[1:, 1:]):
        assert np.linalg.eigvalsh(block).min() >= 0
    with pytest.raises(ModelError, match="positive semidefinite"):
        model_from_covariances(grid.load_ids, np.zeros(2), np.zeros(2),
                               omega_p, np.eye(2) * 1e-4, np.zeros((2, 2)))
    coupled = model_from_covariances(grid.load_ids, np.zeros(2), np.zeros(2),
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
                model_from_covariances(*args)
        else:
            model_from_covariances(*args)
        assert eig_calls == [2 * n]


def test_model_rejects_non_finite_means():
    with pytest.raises(ModelError, match="mean vectors"):
        InjectionModel(nodes=(1, 2), mu_p=np.array([np.nan, 0.0]), mu_q=np.zeros(2),
                       sigma_p=np.eye(2), sigma_q=np.eye(2), sigma_pq=np.zeros((2, 2)))


@pytest.mark.parametrize("mu_p, message", [
    ([1e200, 0.0], "^omega_p, the covariance from the moments and means, contains non-finite entries$"),
    ([10 ** 400, 0.0], "^mu_p holds a number too large for a float$"),
])
def test_model_refuses_means_too_large_for_its_covariance(mu_p, message):
    with pytest.raises(ModelError, match=message):  # under the suite's error::RuntimeWarning filter
        InjectionModel(nodes=(1, 2), mu_p=mu_p, mu_q=[0.0, 0.0], sigma_p=np.eye(2), sigma_q=np.eye(2),
                       sigma_pq=np.zeros((2, 2)))


def test_sampling_refuses_a_count_it_cannot_hold(fig3):
    with pytest.raises(DomainError, match="^cannot hold 9223372036854775808 samples of 10 injections: "):
        sample_injections(default_model(fig3[1]), 2 ** 63, seed=1)


# -- vectorised model functions against their loop forms ---------------------------


def _default_model_loop(forest, **params):
    return model_from_covariances(**_default_covariances_loop(forest, **params))


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


def _single_load_trees():
    """Three substations with one load each, joined by two open lines."""
    return make_grid([(0, SUBSTATION), (1, SUBSTATION), (2, SUBSTATION), (3, LOAD), (4, LOAD), (5, LOAD)],
                     [(0, 3, 0.2, 0.1), (1, 4, 0.3, 0.2), (2, 5, 0.1, 0.3), (3, 4, 0.2, 0.2, True),
                      (4, 5, 0.2, 0.2, True)], closed=[0, 1, 2])


_SHAPES = {"one_tree": lambda: chain_grid(6, seed=1), "several_trees": lambda: _multi_tree_instance(2),
           "single_load_trees": _single_load_trees, "one_load": single_edge_grid}

# Finite parameters whose products overflow.  With sigma = 1.34e154 (sigma_ratio
# 2.68e156), sigma^2 is finite, and at rho = -1.01 the same-tree value is
# -inf while the diagonal is finite; at rho = -1 + 1e-9 every value is finite
# and some are within a factor of two of the largest float.
_OVERFLOWING = [
    {"mu_p": 1e200}, {"mu_p": -1e200}, {"sigma_ratio": 1e200}, {"q_alpha": 1e200}, {"q_alpha": -1e200, "rho": 0.5},
    {"rho": -1.0 + 1e-9}, {"rho": -1.01, "sigma_ratio": 2.68e156}, {"rho": -1.0 + 1e-9, "sigma_ratio": 2.68e156},
    {"mu_p": 1e154, "rho": -1.0 + 1e-6}, {"mu_p": -1e200, "rho": -1.0 + 1e-12, "q_alpha": 1e200},
]


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("params", _OVERFLOWING, ids=lambda params: "-".join(f"{k}={v:g}" for k, v in params.items()))
def test_default_model_entry_checks_equal_the_generic_ones(shape, params):
    # default_model settles the entry checks from the three values it writes;
    # the generic constructor checks the N x N arrays.  On the same arrays
    # both raise the same ModelError text or accept with the same bits.
    forest = _SHAPES[shape]()[1]
    with np.errstate(over="ignore", invalid="ignore"):  # the loop oracle's N x N products overflow
        try:
            want = _default_model_loop(forest, **params)
        except ModelError as exc:
            want = str(exc)
    try:
        got = default_model(forest, **params)
    except ModelError as exc:
        got = str(exc)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
    assert len(got.components) == len(want.components)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(got.components, want.components))


_ORDINARY = [{"mu_p": -0.005, "sigma_ratio": 0.2, "rho": 0.1, "q_alpha": 0.3, "q_noise_ratio": 0.2},
             {"mu_p": 0.02, "sigma_ratio": 0.8, "rho": 0.3, "q_alpha": -0.3, "q_noise_ratio": 0.0}]


@pytest.mark.parametrize("params", _OVERFLOWING + _ORDINARY,
                         ids=lambda params: "-".join(f"{k}={v:g}" for k, v in params.items()))
def test_default_model_takes_numpy_scalars_as_python_floats(params):
    # No np.errstate here: pytest turns a RuntimeWarning into an error, so an
    # overflow that numpy scalars announce before the refusal fails this test.
    # Numpy scalars get the refusal text of Python floats, or their bits.
    forest = _multi_tree_instance(2)[1]
    outcomes = []
    for cast in (float, np.float64):
        try:
            outcomes.append(default_model(forest, **{k: cast(v) for k, v in params.items()}))
        except ModelError as exc:
            outcomes.append(str(exc))
    want, got = outcomes
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name


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
    for judge in (lambda: model_from_covariances(range(1, n + 1), np.zeros(n), np.zeros(n), *omegas),
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
    model = model_from_covariances(grid.load_ids, rng.normal(0, 0.01, n), rng.normal(0, 0.01, n),
                                   small, small, np.zeros((n, n)))
    model = model.aligned_to(reversed(grid.load_ids))
    got = assumption1_violations(forest, model)
    assert got == _violations_loop(forest, model)
    assert {name for _, _, name in got} == {"sigma_p", "sigma_q", "sigma_pq"}
    assert all(isinstance(a, int) and isinstance(b, int) for a, b, _ in got)


# -- the block store against the dense matrices it was built from -------------------


# The _EXPLICIT model of the CLI tests: mu_q = 0 makes fl(mu_p mu_q) = -0.0,
# where sigma_pq holds +0.0.  Its omegas are zero off the diagonal, so each
# load is a component of its own, but only one storage group keeps both zeros.
_SIGNED_ZERO = ((1, 2), np.array([-0.01, -0.01]), np.array([0.0, 0.0]),
                np.array([[2e-4, 1e-4], [1e-4, 2e-4]]), np.zeros((2, 2)), np.zeros((2, 2)))
_EXPLICIT_CASES = ("coupled_trees", "cross_tree", "zero_mu_q", "rho_0", "rho_1e-16", "mixed_means")


def _explicit_arguments(case, seed):
    """An explicit model's forest and the dense InjectionModel arguments it
    is built from."""
    forest = _multi_tree_instance(seed)[1]
    covariances = lambda *args: args
    if case == "cross_tree":
        args = _cross_tree_model(forest, seed, build=covariances)
    elif case.startswith("rho_"):
        loop = _default_covariances_loop(forest, rho=float(case[4:]))
        args = tuple(loop[key] for key in ("nodes", "mu_p", "mu_q", "omega_p", "omega_q", "omega_pq"))
    else:
        args = _coupled_trees_model(forest, seed, build=covariances)
    nodes, mu_p, mu_q, *omegas = args
    rng = np.random.default_rng(seed)
    if case == "zero_mu_q":  # every zero of omega_pq ends as +0.0 where the mean product is -0.0
        mu_q = np.zeros_like(mu_q)
    elif case == "mixed_means":  # entries of either sign, and an asymmetric sigma_pq
        mu_p, mu_q = rng.normal(0, 0.01, len(nodes)), rng.normal(0, 0.01, len(nodes))
    return forest, covariance_moments(nodes, mu_p, mu_q, *omegas)


def _group_of(model):
    return {i: g for g, members in enumerate(model.groups) for i in members.tolist()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", _EXPLICIT_CASES + ("signed_zero",))
def test_explicit_model_rebuilds_its_dense_input_from_its_storage_groups(case, seed):
    args = _SIGNED_ZERO if case == "signed_zero" else _explicit_arguments(case, seed)[1]
    names = ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq")
    model = InjectionModel(*args)
    back = model_from_dict(model_to_dict(model))
    for built in (model, back):
        for name, given in zip(names, args[1:]):
            assert np.array_equal(_bits(getattr(built, name)), _bits(given)), name
        assert [g.tolist() for g in built.groups] == [g.tolist() for g in model.groups]
    group_of = _group_of(model)
    assert all(len({group_of[i] for i in comp.tolist()}) == 1 for comp in model.components)
    if case == "signed_zero":
        assert [c.tolist() for c in model.components] == [[0], [1]]
        assert [g.tolist() for g in model.groups] == [[0, 1]]


@pytest.mark.parametrize("params", [{}, {"rho": 0.0}, {"rho": 1e-16}, {"mu_p": -0.0, "q_alpha": 0.0},
                                    {"mu_p": -0.0, "q_alpha": -0.0}, {"q_alpha": -0.0}, {"q_alpha": -0.3}],
                         ids=lambda params: "-".join(f"{k}={v!r}" for k, v in params.items()) or "defaults")
def test_default_model_trees_are_storage_groups_signed_zeros_included(params):
    # Across trees the default model's values are the mean products, zeros
    # of either sign included, so the trees hold every other entry.
    forest = _multi_tree_instance(4)[1]
    model = default_model(forest, **params)
    loop = _default_covariances_loop(forest, **params)
    args = covariance_moments(*(loop[key] for key in ("nodes", "mu_p", "mu_q", "omega_p", "omega_q", "omega_pq")))
    for name, given in zip(("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"), args[1:]):
        assert np.array_equal(_bits(getattr(model, name)), _bits(given)), name
    tree = forest.load_tree_index
    assert sorted(g.tolist() for g in model.groups) == sorted(
        np.flatnonzero(tree == k).tolist() for k in range(forest.n_trees) if (tree == k).any())


@pytest.mark.parametrize("case", _EXPLICIT_CASES + ("default",))
def test_block_reads_the_bits_of_the_dense_gather(case):
    if case == "default":
        forest = _multi_tree_instance(1)[1]
        model = default_model(forest, q_alpha=-0.3)
        dense = (model.sigma_p, model.sigma_q, model.sigma_pq)
    else:
        forest, args = _explicit_arguments(case, 1)
        model, dense = InjectionModel(*args), args[3:]
    n = len(model.nodes)
    rng = np.random.default_rng(0)
    index_sets = [np.arange(n), rng.permutation(n)[:n // 2], rng.integers(0, n, 7), np.array([], dtype=np.intp),
                  model.groups[0][::-1], np.concatenate([model.groups[-1], model.groups[0]])]
    for k, sigma in enumerate(dense):
        for rows in index_sets:
            for cols in index_sets:
                got = model.block(k, rows, cols)
                assert got.shape == (len(rows), len(cols))
                assert np.array_equal(_bits(got), _bits(sigma[np.ix_(rows, cols)]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", _EXPLICIT_CASES)
def test_assumption1_violations_from_blocks_equal_the_dense_loop(case, seed):
    forest, args = _explicit_arguments(case, seed)
    model = InjectionModel(*args)
    for mod in (model, model.aligned_to(reversed(model.nodes))):
        assert assumption1_violations(forest, mod) == _violations_loop(forest, mod)


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
            moments.analytic_moment_set(forest, model, variant)
            verify_moment_ordering(forest, default_model(forest), variant)


def test_hand_built_moment_sets_carry_no_pair_statistic(fig3):
    grid, forest = fig3
    mset = analytic_moment_set(forest, default_model(forest))
    assert mset.drops is not None
    plain = type(mset)(nodes=mset.nodes, sigma_eps=mset.sigma_eps)
    assert plain.drops is None
    assert plain == type(mset)(nodes=mset.nodes, sigma_eps=mset.sigma_eps, drops=mset.drops)
    assert "drops" not in repr(plain)


def test_moment_sets_with_equal_but_distinct_arrays_compare_equal():
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert MomentSet(nodes=(1, 2), sigma_eps=s) == MomentSet(nodes=(1, 2), sigma_eps=s.copy())
    assert MomentSet(nodes=(1, 2), sigma_eps=s, m=10) != MomentSet(nodes=(1, 2), sigma_eps=s.copy(), m=20)
    assert MomentSet(nodes=(1, 2), sigma_eps=s) != MomentSet(nodes=(2, 1), sigma_eps=s.copy())


def test_moment_sets_with_other_values_or_shapes_compare_unequal():
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    other = s.copy()
    other[0, 1] = other[1, 0] = 0.25
    assert MomentSet(nodes=(1, 2), sigma_eps=s) != MomentSet(nodes=(1, 2), sigma_eps=other)
    assert MomentSet(nodes=(1, 2), sigma_eps=s) != MomentSet(nodes=(1, 2, 3), sigma_eps=np.eye(3))
    assert MomentSet(nodes=(1,), sigma_eps=np.ones((1, 1))) != MomentSet(nodes=(1, 2), sigma_eps=np.ones((2, 2)))


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
