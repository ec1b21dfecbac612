"""Shared grid builders and random-instance helpers.

Randomized tests draw an integer seed (plain or through hypothesis) and map
it through these builders, so every case is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from gridtop.grid import LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge
from gridtop.harness import generate_random_grid
from gridtop.moments import InjectionModel, default_model, model_to_dict


def make_grid(node_specs, edge_specs, closed=None, name=""):
    """node_specs: [(id, kind)]; edge_specs: [(u, v, r, x)] or with switchable."""
    nodes = tuple(GridNode(id=i, kind=k) for i, k in node_specs)
    edges = tuple(LineEdge(u=e[0], v=e[1], r=e[2], x=e[3], switchable=(e[4] if len(e) > 4 else False))
                  for e in edge_specs)
    grid = GridGraph(nodes=nodes, edges=edges, name=name)
    if closed is None:
        return grid, None
    return grid, ForestConfig.from_closed_edges(grid, closed)


def single_edge_grid(r=0.5, x=0.5):
    """One load (id 1) hanging off one substation (id 0)."""
    return make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, r, x)], closed=[0])


def chain_grid(n_loads, r=0.2, x=0.2, seed=None):
    """Substation 0 with loads 1..n in a chain; random impedances per seed."""
    rng = None if seed is None else np.random.default_rng(seed)
    nodes = [(0, SUBSTATION)] + [(i, LOAD) for i in range(1, n_loads + 1)]
    edges = []
    for i in range(1, n_loads + 1):
        ri = r if rng is None else float(rng.uniform(0.05, 0.3))
        xi = x if rng is None else float(rng.uniform(0.05, 0.3))
        edges.append((i - 1, i, ri, xi))
    return make_grid(nodes, edges, closed=list(range(n_loads)))


def shuffled_chain_grid(n_loads, seed):
    """Substation 0 with loads 1..n in a chain whose order along the line is
    a random permutation of the ids, so ids are not ordered by depth."""
    rng = np.random.default_rng(seed)
    order = [0] + [int(i) for i in 1 + rng.permutation(n_loads)]
    nodes = [(0, SUBSTATION)] + [(i, LOAD) for i in range(1, n_loads + 1)]
    edges = [(u, v, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3))) for u, v in zip(order, order[1:])]
    return make_grid(nodes, edges, closed=list(range(n_loads)))


def star_grid(n_leaves, seed):
    """A hub load (1) under substation 0 with leaves 2..n_leaves+1, and three
    loads hanging off the substation directly: the hub's level pads the
    childless loads up to n_leaves child rows."""
    rng = np.random.default_rng(seed)
    hub_leaves = range(2, n_leaves + 2)
    direct = range(n_leaves + 2, n_leaves + 5)
    nodes = [(0, SUBSTATION), (1, LOAD)] + [(i, LOAD) for i in (*hub_leaves, *direct)]
    pairs = [(0, 1)] + [(1, i) for i in hub_leaves] + [(0, i) for i in direct]
    edges = [(u, v, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3))) for u, v in pairs]
    return make_grid(nodes, edges, closed=list(range(len(edges))))


def empty_substation_grid():
    """Substation 0 closes no line (its tie to load 3 is open), so its tree
    holds no load; substation 1 feeds loads 2..6, whose ids are not in
    depth order."""
    return make_grid(
        [(0, SUBSTATION), (1, SUBSTATION)] + [(i, LOAD) for i in range(2, 7)],
        [(1, 4, 0.2, 0.1), (4, 2, 0.3, 0.2), (4, 6, 0.1, 0.3), (6, 3, 0.2, 0.2), (1, 5, 0.25, 0.15),
         (0, 3, 0.2, 0.2)],
        closed=[0, 1, 2, 3, 4],
    )


def two_tree_grid():
    """Two single-edge trees (subs 0 and 1, loads 2 and 3) plus one open tie."""
    return make_grid(
        [(0, SUBSTATION), (1, SUBSTATION), (2, LOAD), (3, LOAD)],
        [(0, 2, 0.3, 0.2), (1, 3, 0.4, 0.1), (2, 3, 0.2, 0.2)],
        closed=[0, 1],
    )


def fig2_tree():
    """The four-node illustration tree: slack d=0, loads a=1, b=2, c=3 with
    edges 0=(a,b), 1=(a,c), 2=(b,d); b is a's parent and a is c's parent."""
    grid, forest = make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD), (3, LOAD)],
        [(1, 2, 0.5, 0.5), (1, 3, 0.5, 0.5), (2, 0, 0.5, 0.5)],
        closed=[0, 1, 2],
    )
    figure_orientation = {0: (1, 2), 1: (1, 3), 2: (2, 0)}
    return grid, forest, figure_orientation


def fig3_tree():
    """Slack 0 - e(1) - b(2) branching to a(3) (with child c(5)) and d(4)."""
    return make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD), (3, LOAD), (4, LOAD), (5, LOAD)],
        [(1, 0, 0.2, 0.3), (2, 1, 0.4, 0.2), (3, 2, 0.3, 0.3), (4, 2, 0.25, 0.15), (5, 3, 0.35, 0.4)],
        closed=[0, 1, 2, 3, 4],
    )


def random_instance(seed, max_loads=12):
    """Small random grid + forest, deterministic per seed."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(k, max_loads + 1))
    total = n + k
    max_extra = total * (total - 1) // 2 - n
    extra = min(int(rng.integers(max(0, k - 1), k + 3)), max_extra)
    return generate_random_grid(n, k, extra, seed=rng.integers(2**32))


def random_a1_model(forest, seed, scale=0.002):
    """Random Gaussian model satisfying the same-tree positivity assumption:
    strictly positive within-tree covariance factors, negative means, and
    reactive injections proportional to active plus independent noise."""
    rng = np.random.default_rng(seed)
    nodes = forest.grid.load_ids
    n = len(nodes)
    omega_p = np.zeros((n, n))
    omega_eta = np.zeros((n, n))
    idx = forest.grid.load_index
    for k in range(forest.n_trees):
        members = [idx[nid] for nid in nodes if forest.tree_of[nid] == k]
        if not members:
            continue
        nk = len(members)
        f = rng.uniform(0.2, 1.0, size=(nk, nk + 2)) * scale
        omega_p[np.ix_(members, members)] = f @ f.T
        g = rng.uniform(0.1, 0.5, size=(nk, nk + 2)) * scale
        omega_eta[np.ix_(members, members)] = g @ g.T
    mu_p = -rng.uniform(0.003, 0.01, size=n)
    alpha = float(rng.uniform(0.2, 0.6))
    mu_q = alpha * mu_p
    sigma_p = omega_p + np.outer(mu_p, mu_p)
    return InjectionModel(
        nodes=nodes,
        mu_p=mu_p,
        mu_q=mu_q,
        sigma_p=sigma_p,
        sigma_q=alpha * alpha * sigma_p + omega_eta,
        sigma_pq=alpha * sigma_p,
    )


def covariance_moments(nodes, mu_p, mu_q, omega_p, omega_q, omega_pq) -> tuple:
    """The InjectionModel arguments (nodes, mu_p, mu_q, sigma_p, sigma_q,
    sigma_pq) of means mu and covariances omega: each non-central moment
    is sigma = omega + mu mu^T."""
    mu_p, mu_q = np.asarray(mu_p, dtype=float), np.asarray(mu_q, dtype=float)
    return (tuple(nodes), mu_p, mu_q, omega_p + np.outer(mu_p, mu_p), omega_q + np.outer(mu_q, mu_q),
            omega_pq + np.outer(mu_p, mu_q))


def model_from_covariances(nodes, mu_p, mu_q, omega_p, omega_q, omega_pq):
    """The InjectionModel of means mu and covariances omega."""
    return InjectionModel(*covariance_moments(nodes, mu_p, mu_q, omega_p, omega_q, omega_pq))


def scaled_model_doc(forest, order, shift=0):
    """The forest's default model with each load's injections scaled by a
    factor of its own, as an explicit model document listing the loads in
    ``order`` (ids moved by ``shift``): the order matters to a sampler that
    ignores node ids."""
    model = default_model(forest)
    scale = np.linspace(0.5, 2.0, len(model.nodes))
    cross = np.outer(scale, scale)
    scaled = InjectionModel(model.nodes, scale * model.mu_p, scale * model.mu_q, cross * model.sigma_p,
                            cross * model.sigma_q, cross * model.sigma_pq)
    doc = model_to_dict(scaled.aligned_to(order))
    doc["nodes"] = [nid + shift for nid in doc["nodes"]]
    return doc


@pytest.fixture
def single_edge():
    return single_edge_grid()


@pytest.fixture
def fig2():
    return fig2_tree()


@pytest.fixture
def fig3():
    return fig3_tree()
