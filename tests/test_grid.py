"""Grid/forest structure, the dense incidence and Laplacian references, and
inverse-Laplacian combinatorics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtop.errors import DomainError, StructureError
from gridtop.fixtures import load_fixture
from gridtop.grid import LOAD, SUBSTATION, ForestConfig, path_sum_matrix
from gridtop.harness import generate_random_grid

import scalar_oracles as oracle
from conftest import (chain_grid, empty_substation_grid, make_grid, random_instance, shuffled_chain_grid,
                      star_grid, two_tree_grid)
from dense_oracles import build_reduced_incidence, edge_weights, load_order, root_path_edges, weighted_laplacians


# -- validation ---------------------------------------------------------------


def test_grid_rejects_nonpositive_impedance():
    with pytest.raises(StructureError, match="must be positive"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, -0.1, 0.2)])
    with pytest.raises(StructureError, match="r must be positive and finite, got a"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, "a", 0.2)])


@pytest.mark.parametrize("r, x", [(1e200, 0.2), (0.2, 1.5e154), (1e-200, 1e-200)])
def test_grid_rejects_an_impedance_whose_square_is_not_a_positive_float(r, x):
    with pytest.raises(StructureError, match=r"^edge 0 \(0,1\): r\^2 \+ x\^2 must be positive and finite"):
        make_grid([(0, SUBSTATION), (1, LOAD)], [(0, 1, r, x)])


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


def _descendants(forest, node):
    """The node and its descendant set as the forest records it: a load's
    ``descendant_load_indices``, and a substation's children's (its whole
    tree)."""
    loads = forest.grid.load_ids
    tops = [node] if node in forest.grid.load_index else forest.children[node]
    return {node, *(loads[i] for top in tops for i in forest.descendant_load_indices[top])}


def test_descendants_of_leaf_is_itself(fig3):
    grid, forest = fig3
    assert _descendants(forest, 5) == {5}
    assert _descendants(forest, 4) == {4}


def test_descendants_fig3_sets(fig3):
    # b=2 has descendants a=3, c=5, d=4; a=3 has c=5 but not d=4.
    grid, forest = fig3
    assert _descendants(forest, 2) == {2, 3, 4, 5}
    assert _descendants(forest, 3) == {3, 5}
    assert 4 not in _descendants(forest, 3)
    idx = grid.load_index
    assert forest.descendant_load_indices[2].tolist() == sorted(idx[n] for n in (2, 3, 4, 5))


def test_descendants_of_substation_is_whole_tree():
    grid, forest = chain_grid(3)
    assert _descendants(forest, 0) == {0, 1, 2, 3}


def test_descendants_nesting_and_sibling_disjointness(fig3):
    grid, forest = fig3
    # 3 is a descendant of 2, so D(3) is contained in D(2).
    assert _descendants(forest, 3) <= _descendants(forest, 2)
    # siblings 3 and 4 have disjoint descendant sets
    assert not (_descendants(forest, 3) & _descendants(forest, 4))


def test_root_path_edges_chain():
    grid, forest = chain_grid(3)
    assert root_path_edges(forest, 3) == (2, 1, 0)
    assert root_path_edges(forest, 1) == (0,)
    assert root_path_edges(forest, 0) == ()


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
            assert oracle.inverse_incidence_entry(forest, nid, ei, orientation) == want
    assert oracle.inverse_incidence_entry(forest, 3, 1, orientation) == -1
    assert oracle.inverse_incidence_entry(forest, 3, 2, orientation) == 1
    assert oracle.inverse_incidence_entry(forest, 2, 1, orientation) == 0


def test_inverse_incidence_default_orientation_is_nonnegative(fig2):
    grid, forest, _ = fig2
    inc = build_reduced_incidence(forest)
    inv = np.linalg.inv(inc.matrix)
    assert inv.min() >= -1e-12  # child->parent orientation: all path entries +1


def test_inverse_incidence_entry_adjacent_to_root(single_edge):
    grid, forest = single_edge
    assert oracle.inverse_incidence_entry(forest, 1, 0) == 1


def test_inverse_incidence_entry_across_trees_is_zero():
    grid, forest = two_tree_grid()
    assert oracle.inverse_incidence_entry(forest, 3, 0) == 0


def test_inverse_incidence_entry_rejects_open_edge():
    grid, forest = two_tree_grid()
    with pytest.raises(DomainError, match="not a closed edge"):
        oracle.inverse_incidence_entry(forest, 2, 2)


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
                assert oracle.inverse_incidence_entry(forest, nid, ei) == round(float(inv[col[nid], row[ei]]))
    for k in range(len(inc.blocks)):
        lo, hi = inc.blocks[k]
        block = inc.block(k)
        np.testing.assert_allclose(block @ np.linalg.inv(block), np.eye(hi - lo), atol=1e-9)


# -- inverse Laplacian entries ------------------------------------------------


def _entry(forest, weights, a, b):
    idx = forest.grid.load_index
    return path_sum_matrix(forest, weights)[idx[a], idx[b]]


def test_laplacian_inverse_entry_fig3_common_path(fig3):
    # Paths of a=3 and d=4 to the slack share edges (b,e) and (e,0).
    grid, forest = fig3
    g = edge_weights(forest, "g")
    expected = 1.0 / g[1] + 1.0 / g[0]
    assert _entry(forest, g, 3, 4) == expected


def test_laplacian_inverse_entry_across_trees_is_zero():
    grid, forest = two_tree_grid()
    w = edge_weights(forest, "g")
    assert _entry(forest, w, 2, 3) == 0.0


def test_laplacian_inverse_entry_matches_dense_oracle():
    rng = np.random.default_rng(7)
    grid, forest = chain_grid(10, seed=3)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    inc = build_reduced_incidence(forest)
    diag = np.array([weights[ei] for ei in inc.edge_order])
    dense = np.linalg.inv(inc.matrix.T @ (diag[:, None] * inc.matrix))
    col = {nid: i for i, nid in enumerate(inc.node_order)}
    mat = path_sum_matrix(forest, weights)
    idx = grid.load_index
    for a in grid.load_ids:
        for b in grid.load_ids:
            want = dense[col[a], col[b]]
            assert mat[idx[a], idx[b]] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_laplacian_inverse_entry_requires_weights(fig3):
    grid, forest = fig3
    with pytest.raises(DomainError, match="no weight"):
        path_sum_matrix(forest, {})


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), pytest.param(10 ** 400, id="10**400"),
                                 True, "a"])
def test_path_sums_reject_a_weight_that_is_not_positive_and_finite(fig3, bad):
    grid, forest = fig3
    weights = {ei: 1.0 for ei in forest.closed_edges}
    weights[forest.closed_edges[0]] = bad
    with pytest.raises(DomainError, match=f"weight for edge {forest.closed_edges[0]} must be positive and finite"):
        path_sum_matrix(forest, weights)


def _row_difference(forest, mat, child, node):
    """Row ``child`` minus row parent(child) of the inverse Laplacian ``mat``
    at ``node``; a substation's row is zero."""
    idx = forest.grid.load_index
    parent = forest.parent[child]
    below = mat[idx[parent], idx[node]] if parent in idx else 0.0
    return mat[idx[child], idx[node]] - below


def test_laplacian_row_difference_basics(fig3):
    grid, forest = fig3
    w = edge_weights(forest, "g")
    mat = path_sum_matrix(forest, w)
    # node = the child itself: 1/w of the parent edge
    assert _row_difference(forest, mat, 3, 3) == pytest.approx(1.0 / w[2])
    # node outside the child's descendant set: exactly zero
    assert _row_difference(forest, mat, 3, 4) == 0.0


def test_laplacian_row_difference_across_trees_is_zero():
    grid, forest = two_tree_grid()
    w = edge_weights(forest, "1/r")
    assert _row_difference(forest, path_sum_matrix(forest, w), 2, 3) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_laplacian_row_difference_equals_entry_difference(seed):
    grid, forest = random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    mat = path_sum_matrix(forest, weights)
    for child in forest.parent:
        for c in grid.load_ids:
            want = oracle.laplacian_row_difference(forest, weights, child, c)
            got = _row_difference(forest, mat, child, c)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            if want == 0.0:
                assert got == 0.0  # a node off the child's subtree has the same meet with both rows


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_path_sum_matrix_matches_entry_function(seed):
    # Entry (a, b) is P(lca(a, b)), which is the diagonal entry of the meet
    # when it is a load and 0 when it is a substation or the pair spans two
    # trees, bit for bit.
    grid, forest = random_instance(seed)
    rng = np.random.default_rng(seed + 2)
    weights = {ei: float(rng.uniform(0.5, 3.0)) for ei in forest.closed_edges}
    mat = path_sum_matrix(forest, weights)
    idx = grid.load_index
    for a in grid.load_ids:
        for b in grid.load_ids:
            meet = oracle.lca(forest, a, b)
            want = mat[idx[meet], idx[meet]] if meet in idx else 0.0
            assert mat[idx[a], idx[b]] == want


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


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_path_sums_do_not_depend_on_how_the_loads_are_numbered(seed):
    # Relabelling a shuffled chain's loads so that ids ascend with depth
    # permutes the matrix, bit for bit: every entry adds its shared root
    # path in the same order under either numbering.
    grid, forest = shuffled_chain_grid(60, seed)
    rng = np.random.default_rng(seed)
    weights = {ei: float(10 ** rng.uniform(-2, 2)) for ei in forest.closed_edges}
    label = {n.id: forest.depth[n.id] for n in grid.nodes}
    _, relabelled = make_grid([(label[n.id], n.kind) for n in grid.nodes],
                              [(label[e.u], label[e.v], e.r, e.x) for e in grid.edges], closed=forest.closed_edges)
    perm = [relabelled.grid.load_index[label[nid]] for nid in grid.load_ids]
    got = path_sum_matrix(relabelled, weights)[np.ix_(perm, perm)]
    assert np.array_equal(got.view(np.int64), path_sum_matrix(forest, weights).view(np.int64))


ANCESTRY_KINDS = PATH_SUM_KINDS + ("empty_substation",)


@pytest.mark.parametrize("kind", ANCESTRY_KINDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_ancestry_matches_the_walks_it_replaced(kind, seed):
    # Every ancestry question the forest answers must answer as the separate
    # walk it replaced.
    grid, forest = _path_sum_instance(kind, seed)
    nodes = [n.id for n in grid.nodes]

    for node in nodes:
        assert _descendants(forest, node) == oracle.descendants(forest, node)
    got, want = forest.descendant_load_indices, oracle.descendant_load_indices(forest)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[nid], want[nid]) for nid in want)
    tree_sizes = [len(list(run)) for _, run in itertools.groupby(load_order(forest), key=forest.tree_of.get)]
    cuts = np.cumsum([0] + tree_sizes).tolist()
    assert build_reduced_incidence(forest).blocks == tuple(zip(cuts, cuts[1:]))


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
    mat = path_sum_matrix(forest, edge_weights(forest, "g"))
    idx = grid.load_index
    for a in grid.load_ids:
        for b in grid.load_ids:
            assert mat[idx[a], idx[b]] == pytest.approx(dense[col[a], col[b]], rel=1e-10)
