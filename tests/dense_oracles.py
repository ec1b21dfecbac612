"""Dense references for the paper's matrix identities.

The paper states its results on the reduced incidence matrix M of a forest
and the reduced weighted Laplacians H_y = M^T diag(w_y) M.  The package
never forms them: it answers every question by root-path and descendant-set
sums (``grid.path_sum_matrix``, ``moments.analytic_moment_set``).  The tests
build the dense matrices here and check those routes against plain linear
algebra, and check the analytic moments against the per-edge
descendant-sum identity (``expected_sq_diff``) and the descendant ordering
of the diagonal moments (``verify_moment_ordering``).

The scalar per-node references of the fast paths are in ``scalar_oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gridtop.errors import DomainError
from gridtop.moments import analytic_moment_set, assumption1_violations


def load_order(forest) -> tuple[int, ...]:
    """Load ids sorted by (tree index, node id): the block ordering used by
    reduced incidence and Laplacian matrices."""
    return tuple(sorted(forest.grid.load_ids, key=lambda n: (forest.tree_of[n], n)))


def root_path_edges(forest, node) -> tuple[int, ...]:
    """Closed-edge indices on the path from ``node`` to its slack bus,
    ordered from the node upward."""
    path = []
    while node in forest.parent:
        path.append(forest.parent_edge[node])
        node = forest.parent[node]
    return tuple(path)


# -- reduced incidence ------------------------------------------------------


@dataclass(frozen=True)
class ReducedIncidence:
    """Reduced edge-to-node incidence matrix of a forest.

    Rows are closed edges and columns load nodes, both in tree-major order;
    substation columns are removed, which makes each tree's block square and
    invertible.  Row i's edge is the parent edge of ``node_order[i]``, so the
    matrix is block diagonal with one block per tree.
    """

    matrix: np.ndarray
    node_order: tuple[int, ...]
    edge_order: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]

    def block(self, k: int) -> np.ndarray:
        lo, hi = self.blocks[k]
        return self.matrix[lo:hi, lo:hi]


def _edge_child(forest, edge_index: int) -> int:
    e = forest.grid.edges[edge_index]
    if forest.parent_edge.get(e.u) == edge_index:
        return e.u
    if forest.parent_edge.get(e.v) == edge_index:
        return e.v
    raise DomainError(f"edge {edge_index} ({e.u},{e.v}) is not a closed edge of the forest")


def _edge_direction(forest, edge_index: int, orientation: Mapping[int, tuple[int, int]] | None) -> tuple[int, int]:
    e = forest.grid.edges[edge_index]
    if orientation is not None and edge_index in orientation:
        tail, head = orientation[edge_index]
        if {tail, head} != {e.u, e.v}:
            raise DomainError(f"orientation for edge {edge_index} does not match endpoints ({e.u},{e.v})")
        return tail, head
    child = _edge_child(forest, edge_index)
    return child, (e.v if child == e.u else e.u)


def build_reduced_incidence(forest, orientation: Mapping[int, tuple[int, int]] | None = None) -> ReducedIncidence:
    """Build the reduced incidence matrix of a forest.

    Every row is +1 at the edge's tail column and -1 at its head column
    (entries at substations are dropped).  The default orientation is
    child -> parent, which makes all inverse entries on a root path +1;
    ``orientation`` may override the direction of individual edges.
    """
    order = load_order(forest)
    col = {nid: i for i, nid in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    edge_order = []
    for i, nid in enumerate(order):
        ei = forest.parent_edge[nid]
        edge_order.append(ei)
        tail, head = _edge_direction(forest, ei, orientation)
        if tail in col:
            m[i, col[tail]] = 1.0
        if head in col:
            m[i, col[head]] = -1.0

    # In tree-major order each tree's loads follow those of the trees before it.
    cuts = np.cumsum([0, *np.bincount(forest.load_tree_index, minlength=forest.n_trees)]).tolist()
    blocks = tuple((start, stop) for start, stop in zip(cuts, cuts[1:]) if stop > start)
    return ReducedIncidence(matrix=m, node_order=order, edge_order=tuple(edge_order), blocks=blocks)


# -- weighted Laplacians -----------------------------------------------------

# Weight tag -> (its WeightedLaplacians field, the weight of a line).
_WEIGHTS = {
    "g": ("h_g", lambda e: e.r / (e.r * e.r + e.x * e.x)),
    "beta": ("h_beta", lambda e: e.x / (e.r * e.r + e.x * e.x)),
    "1/r": ("h_inv_r", lambda e: 1.0 / e.r),
    "1/x": ("h_inv_x", lambda e: 1.0 / e.x),
}
_WEIGHT_TAGS = tuple(_WEIGHTS)


def _weight_source(tag: str):
    try:
        return _WEIGHTS[tag]
    except KeyError:
        raise DomainError(f"unknown weight tag {tag!r}; expected one of {_WEIGHT_TAGS}") from None


@dataclass(frozen=True)
class WeightedLaplacians:
    """Reduced weighted Laplacians of a forest for the four weight sources
    used by the power-flow models.  All four share the tree-major node
    ordering of the reduced incidence matrix and are block diagonal with
    strictly positive eigenvalues."""

    h_g: np.ndarray
    h_beta: np.ndarray
    h_inv_r: np.ndarray
    h_inv_x: np.ndarray
    node_order: tuple[int, ...]
    edge_order: tuple[int, ...]

    def matrix(self, tag: str) -> np.ndarray:
        return getattr(self, _weight_source(tag)[0])


def edge_weights(forest, tag: str) -> dict[int, float]:
    """Per-closed-edge weight vector for a weight source tag."""
    weight = _weight_source(tag)[1]
    return {ei: weight(forest.grid.edges[ei]) for ei in forest.closed_edges}


def weighted_laplacians(forest) -> WeightedLaplacians:
    """Assemble H_y = M^T diag(w_y) M for the four weight sources."""
    inc = build_reduced_incidence(forest)
    mats = {}
    for name, weight in _WEIGHTS.values():
        diag = np.array([weight(forest.grid.edges[ei]) for ei in inc.edge_order])
        mats[name] = inc.matrix.T @ (diag[:, None] * inc.matrix)
    return WeightedLaplacians(**mats, node_order=inc.node_order, edge_order=inc.edge_order)


# -- moment identities -------------------------------------------------------


# The variants of the linear model, stated apart from ``powerflow.VARIANTS``:
# the (r, x) with which a line of impedance (r, x) enters.
VARIANT_IMPEDANCE = {
    "lc": lambda r, x: (r, x),
    "dc": lambda r, x: (1.0 / (r / (r * r + x * x)), 0.0 * x),
}


def line_impedance(edge, variant: str) -> tuple[float, float]:
    return VARIANT_IMPEDANCE[variant](edge.r, edge.x)


def closed_form_sq_diff(edge, variant: str, sp: float, sq: float, spq: float) -> float:
    """E[(eps_child - eps_parent)^2] across ``edge`` from the sums sp, sq,
    spq of sigma_p, sigma_q, sigma_pq over the child's descendant set."""
    r, x = line_impedance(edge, variant)
    return r * r * sp + x * x * sq + 2.0 * r * x * spq


def expected_sq_diff(forest, model, child: int, parent: int, variant: str = "lc") -> float:
    """E[(eps_child - eps_parent)^2] by the direct double sum over the
    child's descendant set (the reference route, independent of the
    path-matrix evaluation of the full moment matrix)."""
    if child not in forest.grid.load_index:
        raise DomainError(f"node {child} is not a load of the forest")
    if forest.parent.get(child) != parent:
        raise DomainError(f"node {parent} is not the parent of node {child}")
    mod = model.aligned_to(forest.grid.load_ids)
    members = forest.descendant_load_indices[child]
    block = np.ix_(members, members)
    sums = (float(m[block].sum()) for m in (mod.sigma_p, mod.sigma_q, mod.sigma_pq))
    return closed_form_sq_diff(forest.grid.edges[forest.parent_edge[child]], variant, *sums)


class DenseDescendantSums:
    """The learner's descendant-set sums, gathered from the model's dense
    sigma matrices: the reference for ``learner._DescendantSums``, which
    gathers from the blocks of the model's storage groups.  Each merge sums
    the np.ix_(a, b) blocks in the same order, so the sums have the same
    bits."""

    def __init__(self, model):
        self._sp = model.sigma_p
        self._sq = model.sigma_q
        self._spq = model.sigma_pq
        diagonals = zip(self._sp.diagonal().tolist(), self._sq.diagonal().tolist(), self._spq.diagonal().tolist())
        rows = np.arange(len(model.nodes), dtype=np.intp)
        self.members = {nid: rows[i:i + 1] for i, nid in enumerate(model.nodes)}
        self.sums = dict(zip(model.nodes, diagonals))

    def merge(self, src, dst):
        a = self.members.pop(src)
        sp_a, sq_a, spq_a = self.sums.pop(src)
        if dst not in self.members:  # a substation
            return
        b = self.members[dst]
        sp_b, sq_b, spq_b = self.sums[dst]
        ab = (a[:, None], b)
        ba = (b[:, None], a)
        sp_b += sp_a + 2.0 * float(self._sp[ab].sum())
        sq_b += sq_a + 2.0 * float(self._sq[ab].sum())
        spq_b += spq_a + float(self._spq[ab].sum()) + float(self._spq[ba].sum())
        self.members[dst] = np.concatenate([b, a])
        self.sums[dst] = (sp_b, sq_b, spq_b)


def verify_moment_ordering(forest, model, variant: str = "lc") -> list[tuple[int, int, float, float]]:
    """Check the descendant ordering of diagonal voltage moments.

    Under the positivity assumption every strict descendant must have a
    strictly larger diagonal moment than its ancestor (substations sit at
    zero).  Returns the violating (descendant, ancestor, value_desc,
    value_anc) tuples; raises ValueError when the model fails the
    precondition, which is a different failure from an ordering violation.
    """
    bad = assumption1_violations(forest, model)
    if bad:
        a, b, name = bad[0]
        raise ValueError(f"model violates the positivity assumption: {name}({a},{b}) <= 0 "
                         f"for same-tree pair ({a},{b})")
    sigma = analytic_moment_set(forest, model, variant).sigma_eps
    idx = forest.grid.load_index
    violations = []
    for nid in forest.grid.load_ids:
        own = sigma[idx[nid], idx[nid]]
        anc = forest.parent[nid]
        while True:
            anc_val = 0.0 if anc in forest.grid.substation_ids else sigma[idx[anc], idx[anc]]
            if not own > anc_val:
                violations.append((nid, anc, float(own), float(anc_val)))
            if anc in forest.grid.substation_ids:
                break
            anc = forest.parent[anc]
    return violations
