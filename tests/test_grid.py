"""Grid/forest structure, incidence matrices, and inverse-Laplacian combinatorics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError, StructureError
from gridtop.fixtures import load_fixture
from gridtop.grid import (
    LOAD,
    SUBSTATION,
    ForestConfig,
    build_reduced_incidence,
    edge_weights,
    inverse_incidence_entry,
    laplacian_inverse_entry,
    laplacian_row_difference,
    path_sum_matrix,
    weighted_laplacians,
)
from gridtop.harness import generate_random_grid

import scalar_oracles as oracle
from conftest import (chain_grid, empty_substation_grid, make_grid, random_instance, shuffled_chain_grid,
                      star_grid, two_tree_grid)


# -- validation ---------------------------------------------------------------


def test_grid_rejects_nonpositive_impedance():
    with pytest.raises(StructureError, match="must be positive"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, -0.1, 0.2)])
    with pytest.raises(StructureError, match="r must be positive and finite, got a"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, "a", 0.2)])


def test_grid_rejects_duplicate_edges():
    with pytest.raises(StructureError, match="duplicate"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, 0.1, 0.2), (1, 0, 0.3, 0.1)])


def test_grid_rejects_duplicate_node_ids_naming_the_id():
    with pytest.raises(StructureError, match="node id 1 is listed twice"):
        make_grid([(0, SUBSTATION), (1, LOAD), (1, LOAD)], [(0, 1, 0.1, 0.2)])


def test_grid_rejects_unknown_endpoint_and_self_loop():
    with pytest.raises(StructureError, match="endpoint"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 7, 0.1, 0.2)])
    with pytest.raises(StructureError, match="self-loop"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(1, 1, 0.1, 0.2)])


def test_grid_requires_connectivity_with_all_switches_closed():
    with pytest.raises(StructureError, match="not connected"):
        make_grid(
            [(0, SUBSTATION), (1, LOAD), (2, SUBSTATION), (3, LOAD)],
            [(0, 1, 0.1, 0.1), (2, 3, 0.1, 0.1)],
        )


def test_forest_rejects_cycle():
    grid, _ = make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD)],
        [(0, 1, 0.1, 0.1), (1, 2, 0.1, 0.1), (0, 2, 0.1, 0.1)],
    )
    with pytest.raises(StructureError, match="cycle"):
        ForestConfig.from_closed_edges(grid, [0, 1, 2])


def test_forest_rejects_two_substations_in_one_tree():
    grid, _ = make_grid(
        [(0, SUBSTATION), (1, SUBSTATION), (2, LOAD)],
        [(0, 2, 0.1, 0.1), (1, 2, 0.1, 0.1)],
    )
    with pytest.raises(StructureError, match="two substations"):
        ForestConfig.from_closed_edges(grid, [0, 1])


def test_forest_rejects_unspanned_nodes():
    grid, _ = make_grid(
        [(0, SUBSTATION), (1, LOAD), (2, LOAD)],
        [(0, 1, 0.1, 0.1), (1, 2, 0.1, 0.1)],
    )
    with pytest.raises(StructureError, match="do not span"):
        ForestConfig.from_closed_edges(grid, [0])


@pytest.mark.parametrize("bad", [1.5, "a", True, None])
def test_forest_rejects_a_closed_edge_index_that_is_not_an_integer(bad):
    grid, _ = chain_grid(3)
    with pytest.raises(StructureError, match=f"closed edge index {bad!r} is not an integer"):
        ForestConfig.from_closed_edges(grid, [0, 1, bad])
    with pytest.raises(StructureError, match="is not an integer"):
        ForestConfig(grid=grid, closed_edges=(bad, 0, 1))


def test_forest_accepts_numpy_integer_edge_indices():
    grid, forest = chain_grid(3)
    assert ForestConfig.from_closed_edges(grid, np.array([2, 0, 1])).closed_edges == forest.closed_edges


# -- descendants and paths ----------------------------------------------------


def test_descendants_of_leaf_is_itself(fig3):
    grid, forest = fig3
    assert forest.descendants(5) == {5}
    assert forest.descendants(4) == {4}


def test_descendants_fig3_sets(fig3):
    # b=2 has descendants a=3, c=5, d=4; a=3 has c=5 but not d=4.
    grid, forest = fig3
    assert forest.descendants(2) == {2, 3, 4, 5}
    assert forest.descendants(3) == {3, 5}
    assert 4 not in forest.descendants(3)


def test_descendants_of_substation_is_whole_tree():
    grid, forest = chain_grid(3)
    assert forest.descendants(0) == {0, 1, 2, 3}


def test_descendants_nesting_and_sibling_disjointness(fig3):
    grid, forest = fig3
    # 3 is a descendant of 2, so D(3) is contained in D(2).
    assert forest.descendants(3) <= forest.descendants(2)
    # siblings 3 and 4 have disjoint descendant sets
    assert not (forest.descendants(3) & forest.descendants(4))


def test_root_path_edges_chain():
    grid, forest = chain_grid(3)
    assert forest.root_path_edges(3) == (2, 1, 0)
    assert forest.root_path_edges(1) == (0,)
    assert forest.root_path_edges(0) == ()


# -- reduced incidence --------------------------------------------------------


def test_incidence_single_edge(single_edge):
    grid, forest = single_edge
    inc = build_reduced_incidence(forest)
    assert inc.matrix.shape == (1, 1)
    assert inc.matrix[0, 0] == 1.0
    assert inc.node_order == (1,)


def test_incidence_two_single_edge_trees():
    grid, forest = two_tree_grid()
    inc = build_reduced_incidence(forest)
    np.testing.assert_array_equal(inc.matrix, np.eye(2))
    assert inc.blocks == ((0, 1), (1, 2))


def test_incidence_fig2_matches_figure_orientation(fig2):
    grid, forest, orientation = fig2
    inc = build_reduced_incidence(forest, orientation)
    col = {nid: i for i, nid in enumerate(inc.node_order)}
    row = {ei: i for i, ei in enumerate(inc.edge_order)}
    a, b, c = 1, 2, 3
    expected = {
        (0, a): 1.0, (0, b): -1.0, (0, c): 0.0,   # edge (a,b) directed a->b
        (1, a): 1.0, (1, b): 0.0, (1, c): -1.0,   # edge (a,c) directed a->c
        (2, a): 0.0, (2, b): 1.0, (2, c): 0.0,    # edge (b,d) directed b->d, d removed
    }
    for (ei, nid), val in expected.items():
        assert inc.matrix[row[ei], col[nid]] == val


def test_incidence_inverse_entries_in_unit_set(fig2):
    grid, forest, orientation = fig2
    inc = build_reduced_incidence(forest, orientation)
    inv = np.linalg.inv(inc.matrix)
    assert set(np.round(inv.flatten()).astype(int)) <= {-1, 0, 1}
    np.testing.assert_allclose(inv, np.round(inv), atol=1e-12)


def test_inverse_incidence_entry_fig2_oracle(fig2):
    # Every combinatorial entry must match the dense inverse, including the
    # -1 of edge (a,c) on c's path and the on-path +1 of edge (b,d) for c.
    grid, forest, orientation = fig2
    inc = build_reduced_incidence(forest, orientation)
    inv = np.linalg.inv(inc.matrix)
    col = {nid: i for i, nid in enumerate(inc.node_order)}
    row = {ei: i for i, ei in enumerate(inc.edge_order)}
    for nid in inc.node_order:
        for ei in inc.edge_order:
            want = round(float(inv[col[nid], row[ei]]))
            assert inverse_incidence_entry(forest, nid, ei, orientation) == want
    assert inverse_incidence_entry(forest, 3, 1, orientation) == -1
    assert inverse_incidence_entry(forest, 3, 2, orientation) == 1
    assert inverse_incidence_entry(forest, 2, 1, orientation) == 0


def test_inverse_incidence_default_orientation_is_nonnegative(fig2):
    grid, forest, _ = fig2
    inc = build_reduced_incidence(forest)
    inv = np.linalg.inv(inc.matrix)
    assert inv.min() >= -1e-12  # child->parent orientation: all path entries +1


def test_inverse_incidence_entry_adjacent_to_root(single_edge):
    grid, forest = single_edge
    assert inverse_incidence_entry(forest, 1, 0) == 1


def test_inverse_incidence_entry_across_trees_is_zero():
    grid, forest = two_tree_grid()
    assert inverse_incidence_entry(forest, 3, 0) == 0


def test_inverse_incidence_entry_rejects_open_edge():
    grid, forest = two_tree_grid()
    with pytest.raises(DomainError, match="not a closed edge"):
        inverse_incidence_entry(forest, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_incidence_blocks_invert_and_match_entrywise(seed):
    grid, forest = random_instance(seed)
    inc = build_reduced_incidence(forest)
    n = grid.n_loads
    if n:
        inv = np.linalg.inv(inc.matrix)
        np.testing.assert_allclose(inc.matrix @ inv, np.eye(n), atol=1e-9)
        col = {nid: i for i, nid in enumerate(inc.node_order)}
        row = {ei: i for i, ei in enumerate(inc.edge_order)}
        for nid in inc.node_order:
            for ei in inc.edge_order:
                assert inverse_incidence_entry(forest, nid, ei) == round(float(inv[col[nid], row[ei]]))
    for k in range(len(inc.blocks)):
        lo, hi = inc.blocks[k]
        block = inc.block(k)
        np.testing.assert_allclose(block @ np.linalg.inv(block), np.eye(hi - lo), atol=1e-9)


# -- inverse Laplacian entries ------------------------------------------------


def test_laplacian_inverse_entry_fig3_common_path(fig3):
    # Paths of a=3 and d=4 to the slack share edges (b,e) and (e,0).
    grid, forest = fig3
    g = edge_weights(forest, "g")
    expected = 1.0 / g[1] + 1.0 / g[0]
    assert laplacian_inverse_entry(forest, g, 3, 4) == expected


def test_laplacian_inverse_entry_across_trees_is_zero():
    grid, forest = two_tree_grid()
    w = edge_weights(forest, "g")
    assert laplacian_inverse_entry(forest, w, 2, 3) == 0.0


def test_laplacian_inverse_entry_matches_dense_oracle():
    rng = np.random.default_rng(7)
    grid, forest = chain_grid(10, seed=3)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    inc = build_reduced_incidence(forest)
    diag = np.array([weights[ei] for ei in inc.edge_order])
    dense = np.linalg.inv(inc.matrix.T @ (diag[:, None] * inc.matrix))
    col = {nid: i for i, nid in enumerate(inc.node_order)}
    for a in grid.load_ids:
        for b in grid.load_ids:
            want = dense[col[a], col[b]]
            got = laplacian_inverse_entry(forest, weights, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_laplacian_inverse_entry_requires_weights(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError, match="no weight"):
        laplacian_inverse_entry(forest, {}, 3, 4)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), pytest.param(10 ** 400, id="10**400"),
                                 True, "a"])
def test_path_sums_reject_a_weight_that_is_not_positive_and_finite(fig3, bad):
    grid, forest = fig3
    weights = {ei: 1.0 for ei in forest.closed_edges}
    weights[forest.closed_edges[0]] = bad
    with pytest.raises(DomainError, match=f"weight for edge {forest.closed_edges[0]} must be positive and finite"):
        path_sum_matrix(forest, weights)


def test_laplacian_row_difference_basics(fig3):
    grid, forest = fig3
    w = edge_weights(forest, "g")
    # c = a itself: 1/w of the parent edge
    assert laplacian_row_difference(forest, w, 3, 2, 3) == pytest.approx(1.0 / w[2])
    # c outside the descendant set: exactly zero
    assert laplacian_row_difference(forest, w, 3, 2, 4) == 0.0
    with pytest.raises(DomainError, match="not the parent"):
        laplacian_row_difference(forest, w, 2, 3, 4)


def test_laplacian_row_difference_across_trees_is_zero():
    grid, forest = two_tree_grid()
    w = edge_weights(forest, "1/r")
    assert laplacian_row_difference(forest, w, 2, 0, 3) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_laplacian_row_difference_equals_entry_difference(seed):
    grid, forest = random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    for child, parent in forest.parent.items():
        for c in grid.load_ids:
            lhs = laplacian_row_difference(forest, weights, child, parent, c)
            if grid.is_substation(parent):
                diff = laplacian_inverse_entry(forest, weights, child, c)
            else:
                diff = (laplacian_inverse_entry(forest, weights, child, c)
                        - laplacian_inverse_entry(forest, weights, parent, c))
            assert lhs == pytest.approx(diff, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_path_sum_matrix_matches_entry_function(seed):
    grid, forest = random_instance(seed)
    rng = np.random.default_rng(seed + 2)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    mat = path_sum_matrix(forest, weights)
    idx = grid.load_index
    for a in grid.load_ids:
        for b in grid.load_ids:
            assert mat[idx[a], idx[b]] == laplacian_inverse_entry(forest, weights, a, b)


PATH_SUM_KINDS = ("bus_13_3", "bus_29_1", "bus_83_11", "random", "random_300_4", "shuffled_chain", "star")


def _path_sum_instance(kind, seed):
    if kind.startswith("bus_"):
        return load_fixture(kind)
    if kind == "random":
        return random_instance(seed, max_loads=40)
    if kind == "random_300_4":
        return generate_random_grid(300, 4, 40, seed=seed)
    if kind == "shuffled_chain":
        return shuffled_chain_grid(40 + seed % 81, seed)
    if kind == "empty_substation":
        return empty_substation_grid()
    return star_grid(5 + seed % 40, seed)


@pytest.mark.parametrize("kind", PATH_SUM_KINDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_path_sum_matrix_matches_block_accumulation(kind, seed):
    # Weights over four decades make the order of each root-path sum show
    # in its last bits.
    grid, forest = _path_sum_instance(kind, seed)
    rng = np.random.default_rng(seed)
    weights = {ei: float(10 ** rng.uniform(-2, 2)) for ei in forest.closed_edges}
    got, want = path_sum_matrix(forest, weights), oracle.block_path_sums(forest, weights)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


ANCESTRY_KINDS = PATH_SUM_KINDS + ("empty_substation",)


@pytest.mark.parametrize("kind", ANCESTRY_KINDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_ancestry_matches_the_walks_it_replaced(kind, seed):
    # Every ancestry question now reads the preorder runs recorded when the
    # forest is built; each must answer as the separate walk it replaced.
    grid, forest = _path_sum_instance(kind, seed)
    rng = np.random.default_rng(seed)
    nodes = [n.id for n in grid.nodes]
    loads = list(grid.load_ids)

    position, size = oracle.preorder(forest)
    assert forest._load_preorder == tuple(position)
    assert all(forest._span[nid] == (position[nid], position[nid] + size[nid]) for nid in loads)
    for node in nodes:
        assert forest.descendants(node) == oracle.descendants(forest, node)
    got, want = forest.descendant_load_indices, oracle.descendant_load_indices(forest)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[nid], want[nid]) for nid in want)
    tree_sizes = [len(list(run)) for _, run in itertools.groupby(forest.load_order, key=forest.tree_of.get)]
    cuts = np.cumsum([0] + tree_sizes).tolist()
    assert build_reduced_incidence(forest).blocks == tuple(zip(cuts, cuts[1:]))

    for a, b in rng.choice(nodes, size=(200, 2)).tolist():
        assert forest.lca(a, b) == oracle.lca(forest, a, b)
    closed = list(forest.closed_edges)
    edges = grid.edges
    orientation = {ei: (edges[ei].v, edges[ei].u) if rng.random() < 0.5 else (edges[ei].u, edges[ei].v)
                   for ei in closed}
    for node, ei in zip(rng.choice(loads, 200).tolist(), rng.choice(closed, 200).tolist()):
        for orient in (None, orientation):
            assert (inverse_incidence_entry(forest, node, ei, orient)
                    == oracle.inverse_incidence_entry(forest, node, ei, orient))
    weights = {ei: float(10 ** rng.uniform(-2, 2)) for ei in closed}
    for child, node in zip(rng.choice(loads, 200).tolist(), rng.choice(nodes, 200).tolist()):
        assert (laplacian_row_difference(forest, weights, child, forest.parent[child], node)
                == oracle.laplacian_row_difference(forest, weights, child, node))

    mat = path_sum_matrix(forest, weights)
    idx = grid.load_index
    pairs = rng.choice(loads, size=(200, 2)).tolist()
    entries = np.array([laplacian_inverse_entry(forest, weights, a, b) for a, b in pairs])
    want = mat[[idx[a] for a, _ in pairs], [idx[b] for _, b in pairs]]
    assert np.array_equal(entries.view(np.int64), want.view(np.int64))


# -- weighted Laplacians ------------------------------------------------------


def test_weighted_laplacians_block_diagonal_and_positive_definite():
    grid, forest = two_tree_grid()
    wl = weighted_laplacians(forest)
    for tag in ("g", "beta", "1/r", "1/x"):
        h = wl.matrix(tag)
        assert h[0, 1] == 0.0 and h[1, 0] == 0.0  # cross-tree coupling
        assert np.linalg.eigvalsh(h).min() > 0


def test_weighted_laplacians_match_definition(fig3):
    grid, forest = fig3
    wl = weighted_laplacians(forest)
    inc = build_reduced_incidence(forest)
    for tag in ("g", "beta", "1/r", "1/x"):
        w = edge_weights(forest, tag)
        diag = np.diag([w[ei] for ei in inc.edge_order])
        np.testing.assert_allclose(wl.matrix(tag), inc.matrix.T @ diag @ inc.matrix, rtol=1e-12)


def test_laplacian_inverse_is_dense_inverse_of_weighted_laplacian(fig3):
    grid, forest = fig3
    wl = weighted_laplacians(forest)
    dense = np.linalg.inv(wl.h_g)
    col = {nid: i for i, nid in enumerate(wl.node_order)}
    g = edge_weights(forest, "g")
    for a in grid.load_ids:
        for b in grid.load_ids:
            assert laplacian_inverse_entry(forest, g, a, b) == pytest.approx(
                dense[col[a], col[b]], rel=1e-10)
