"""Meshed grid, operational spanning forests, and tree combinatorics.

The designed network is a connected graph with switches on its lines; the
operational configuration closes a subset of lines that forms a spanning
forest in which every tree contains exactly one substation (its root).  The
moment and learning machinery elsewhere in the package never inverts a
matrix at runtime: entries of inverse incidence matrices and of inverse
reduced weighted Laplacians reduce to root-path and descendant-set
combinatorics on the forest, computed here.  Dense matrices are still
constructed on demand because tests validate the combinatorial routes
against plain linear algebra.

The dense inverse Laplacian (``path_sum_matrix``) costs O(N^2): entry
(a, b) is P(lca(a, b)), the root-path sum of the pair's lowest common
ancestor.  P is computed once for all loads, and each node pair is written
once, in a depth-first preorder where every descendant set is one run of
consecutive positions.  ``laplacian_inverse_entry`` reads the same P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, StructureError

SUBSTATION = "substation"
LOAD = "load"


@dataclass(frozen=True)
class GridNode:
    id: int
    kind: str

    def __post_init__(self):
        if self.kind not in (SUBSTATION, LOAD):
            raise StructureError(f"node {self.id}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class LineEdge:
    """One line of the designed grid; endpoints are unordered."""

    u: int
    v: int
    r: float
    x: float
    switchable: bool = False

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    @property
    def conductance(self) -> float:
        return self.r / (self.r * self.r + self.x * self.x)

    @property
    def susceptance(self) -> float:
        return self.x / (self.r * self.r + self.x * self.x)


@dataclass(frozen=True)
class GridGraph:
    """The designed (possibly meshed) network with all line parameters.

    Nodes are substations or loads; edges carry per-unit resistance and
    reactance and an optional switch marker.  Immutable after construction;
    all derived lookups are cached and read-only.
    """

    nodes: tuple[GridNode, ...]
    edges: tuple[LineEdge, ...]
    name: str = ""

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise StructureError("duplicate node ids")
        id_set = set(ids)
        seen_pairs: set[tuple[int, int]] = set()
        for i, e in enumerate(self.edges):
            if e.u not in id_set or e.v not in id_set:
                raise StructureError(f"edge {i} ({e.u},{e.v}): endpoint not a known node")
            if e.u == e.v:
                raise StructureError(f"edge {i}: self-loop at node {e.u}")
            if e.pair in seen_pairs:
                raise StructureError(f"edge {i} ({e.u},{e.v}): duplicate undirected edge")
            seen_pairs.add(e.pair)
            for label, val in (("r", e.r), ("x", e.x)):
                if not (np.isfinite(val) and val > 0):
                    raise StructureError(f"edge {i} ({e.u},{e.v}): {label} must be positive and finite, got {val}")
        if self.n_substations < 1:
            raise StructureError("grid has no substation")
        if self.n_loads < 1:
            raise StructureError("grid has no load node")
        self._check_connected()

    def _check_connected(self):
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        start = self.nodes[0].id
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.nodes):
            missing = sorted(n.id for n in self.nodes if n.id not in seen)
            raise StructureError(f"grid with all switches closed is not connected (unreachable: {missing})")

    @cached_property
    def substation_ids(self) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.kind == SUBSTATION))

    @cached_property
    def load_ids(self) -> tuple[int, ...]:
        """Load node ids in ascending order: the canonical index space for
        every vector and moment matrix in this package."""
        return tuple(sorted(n.id for n in self.nodes if n.kind == LOAD))

    @cached_property
    def load_index(self) -> dict[int, int]:
        return {nid: i for i, nid in enumerate(self.load_ids)}

    @property
    def n_loads(self) -> int:
        return sum(1 for n in self.nodes if n.kind == LOAD)

    @property
    def n_substations(self) -> int:
        return sum(1 for n in self.nodes if n.kind == SUBSTATION)

    @cached_property
    def kind_of(self) -> dict[int, str]:
        return {n.id: n.kind for n in self.nodes}

    def is_substation(self, node: int) -> bool:
        try:
            return self.kind_of[node] == SUBSTATION
        except KeyError:
            raise DomainError(f"unknown node {node}") from None

    @cached_property
    def _pair_to_edge(self) -> dict[tuple[int, int], int]:
        return {e.pair: i for i, e in enumerate(self.edges)}

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of the line joining u and v (open or closed), or None."""
        pair = (u, v) if u <= v else (v, u)
        return self._pair_to_edge.get(pair)


@dataclass(frozen=True)
class ForestConfig:
    """A base-constrained spanning forest of a grid.

    ``closed_edges`` are indices into ``grid.edges``; they must form a
    spanning forest with exactly one substation per tree.  Trees are indexed
    by the ascending order of their substation ids.  The parent relation,
    depths, and descendant sets are derived once and cached; instances are
    immutable and safe to share across threads.
    """

    grid: GridGraph
    closed_edges: tuple[int, ...]

    # Equivalence note: a K-tree forest is the same object as the single
    # spanning tree obtained by joining all substations to an artificial
    # super-node root. Everything here keeps the trees native instead; the
    # block structure of the reduced matrices carries the same information.

    @classmethod
    def from_closed_edges(cls, grid: GridGraph, closed: Iterable[int]) -> "ForestConfig":
        return cls(grid=grid, closed_edges=tuple(sorted(closed)))

    def __post_init__(self):
        seen = set()
        for ei in self.closed_edges:
            if not (0 <= ei < len(self.grid.edges)):
                raise StructureError(f"closed edge index {ei} is not an edge of the grid")
            if ei in seen:
                raise StructureError(f"closed edge index {ei} listed twice")
            seen.add(ei)
        self._derive()  # populates the cached maps and validates the forest

    def _derive(self):
        grid = self.grid
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in grid.nodes}
        for ei in self.closed_edges:
            e = grid.edges[ei]
            adj[e.u].append((e.v, ei))
            adj[e.v].append((e.u, ei))

        tree_of: dict[int, int] = {}
        parent: dict[int, int] = {}
        parent_edge: dict[int, int] = {}
        depth: dict[int, int] = {}
        for k, root in enumerate(grid.substation_ids):
            tree_of[root] = k
            depth[root] = 0
            queue = [root]
            while queue:
                cur = queue.pop()
                for nb, ei in adj[cur]:
                    if nb == parent.get(cur):
                        continue
                    if nb in tree_of:
                        if grid.is_substation(nb):
                            raise StructureError(f"tree {k} contains two substations ({root} and {nb})")
                        raise StructureError(f"closed edges contain a cycle through node {nb}")
                    if grid.is_substation(nb):
                        raise StructureError(f"tree {k} contains two substations ({root} and {nb})")
                    tree_of[nb] = k
                    parent[nb] = cur
                    parent_edge[nb] = ei
                    depth[nb] = depth[cur] + 1
                    queue.append(nb)
        unreached = sorted(n.id for n in grid.nodes if n.id not in tree_of)
        if unreached:
            raise StructureError(f"closed edges do not span the grid (unreached nodes: {unreached})")
        if len(self.closed_edges) != grid.n_loads:
            # Coverage plus acyclicity already imply this; kept as a guard.
            raise StructureError("closed edge count does not match a base-constrained spanning forest")

        children: dict[int, list[int]] = {n.id: [] for n in grid.nodes}
        for child, par in parent.items():
            children[par].append(child)
        object.__setattr__(self, "_tree_of", tree_of)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_parent_edge", parent_edge)
        object.__setattr__(self, "_depth", depth)
        object.__setattr__(self, "_children", {k: tuple(sorted(v)) for k, v in children.items()})

    # -- structure lookups --------------------------------------------------

    @property
    def n_trees(self) -> int:
        return self.grid.n_substations

    @property
    def tree_of(self) -> dict[int, int]:
        return self._tree_of

    @property
    def parent(self) -> dict[int, int]:
        """Parent node of every load node."""
        return self._parent

    @property
    def parent_edge(self) -> dict[int, int]:
        """Closed-edge index joining every load node to its parent."""
        return self._parent_edge

    @property
    def depth(self) -> dict[int, int]:
        return self._depth

    @property
    def children(self) -> dict[int, tuple[int, ...]]:
        return self._children

    def root_of(self, k: int) -> int:
        return self.grid.substation_ids[k]

    @cached_property
    def load_order(self) -> tuple[int, ...]:
        """Load ids sorted by (tree index, node id): the block ordering used
        by reduced incidence and Laplacian matrices."""
        return tuple(sorted(self.grid.load_ids, key=lambda n: (self._tree_of[n], n)))

    @cached_property
    def load_tree_index(self) -> np.ndarray:
        """Tree index of every load node in canonical (ascending id) order."""
        out = np.array([self._tree_of[n] for n in self.grid.load_ids], dtype=np.intp)
        out.flags.writeable = False
        return out

    @cached_property
    def memo(self) -> dict:
        """Store for operators other modules derive from this forest (such
        as the linear model's response matrices); entries are built on
        first use and die with the forest."""
        return {}

    @cached_property
    def loads_by_depth(self) -> tuple[int, ...]:
        """Load ids ordered root-to-leaf (parents before children)."""
        return tuple(sorted(self.grid.load_ids, key=lambda n: (self._depth[n], n)))

    def _require_node(self, node: int):
        if node not in self.grid.kind_of:
            raise DomainError(f"unknown node {node}")

    def root_path_edges(self, node: int) -> tuple[int, ...]:
        """Closed-edge indices on the path from ``node`` to its slack bus,
        ordered from the node upward."""
        self._require_node(node)
        path = []
        cur = node
        while cur in self._parent:
            path.append(self._parent_edge[cur])
            cur = self._parent[cur]
        return tuple(path)

    def lca(self, a: int, b: int) -> int | None:
        """Deepest common node on the root paths of a and b; None when the
        nodes lie in different trees."""
        self._require_node(a)
        self._require_node(b)
        if self._tree_of[a] != self._tree_of[b]:
            return None
        da, db = self._depth[a], self._depth[b]
        while da > db:
            a = self._parent[a]
            da -= 1
        while db > da:
            b = self._parent[b]
            db -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def descendants(self, node: int) -> frozenset[int]:
        """All nodes whose root path passes through ``node``, including the
        node itself; for a substation this is its whole tree."""
        self._require_node(node)
        out = [node]
        stack = [node]
        while stack:
            for ch in self._children[stack.pop()]:
                out.append(ch)
                stack.append(ch)
        return frozenset(out)

    @cached_property
    def descendant_load_indices(self) -> dict[int, np.ndarray]:
        """For every load node, the canonical (ascending load id) indices of
        the loads in its descendant set, itself included."""
        idx = self.grid.load_index
        post: dict[int, list[int]] = {}
        for nid in reversed(self.loads_by_depth):
            members = [idx[nid]]
            for ch in self._children[nid]:
                members.extend(post[ch].tolist())
            post[nid] = np.array(sorted(members), dtype=np.intp)
        return post


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


def _edge_child(forest: ForestConfig, edge_index: int) -> int:
    e = forest.grid.edges[edge_index]
    if forest.parent_edge.get(e.u) == edge_index:
        return e.u
    if forest.parent_edge.get(e.v) == edge_index:
        return e.v
    raise DomainError(f"edge {edge_index} ({e.u},{e.v}) is not a closed edge of the forest")


def _edge_direction(forest: ForestConfig, edge_index: int,
                    orientation: Mapping[int, tuple[int, int]] | None) -> tuple[int, int]:
    e = forest.grid.edges[edge_index]
    if orientation is not None and edge_index in orientation:
        tail, head = orientation[edge_index]
        if {tail, head} != {e.u, e.v}:
            raise DomainError(f"orientation for edge {edge_index} does not match endpoints ({e.u},{e.v})")
        return tail, head
    child = _edge_child(forest, edge_index)
    return child, (e.v if child == e.u else e.u)


def build_reduced_incidence(forest: ForestConfig,
                            orientation: Mapping[int, tuple[int, int]] | None = None) -> ReducedIncidence:
    """Build the reduced incidence matrix of a forest.

    Every row is +1 at the edge's tail column and -1 at its head column
    (entries at substations are dropped).  The default orientation is
    child -> parent, which makes all inverse entries on a root path +1;
    ``orientation`` may override the direction of individual edges.
    """
    order = forest.load_order
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

    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or forest.tree_of[order[i]] != forest.tree_of[order[start]]:
            blocks.append((start, i))
            start = i
    return ReducedIncidence(matrix=m, node_order=order, edge_order=tuple(edge_order), blocks=tuple(blocks))


def inverse_incidence_entry(forest: ForestConfig, node: int, edge_index: int,
                            orientation: Mapping[int, tuple[int, int]] | None = None) -> int:
    """Entry (node, edge) of the inverse reduced incidence matrix.

    +1 when the edge lies on the node's root path and is oriented along the
    walk toward the slack bus, -1 when oriented against it, 0 when the edge
    is off the path or in another tree.
    """
    forest._require_node(node)
    if forest.grid.is_substation(node):
        raise DomainError(f"node {node} is a substation; the reduced matrix has no such row")
    child = _edge_child(forest, edge_index)  # also rejects open edges
    if forest.tree_of[node] != forest.tree_of[child]:
        return 0
    if edge_index not in forest.root_path_edges(node):
        return 0
    tail, _ = _edge_direction(forest, edge_index, orientation)
    return 1 if tail == child else -1


# -- inverse Laplacian combinatorics ----------------------------------------


def _weight_of(weights: Mapping[int, float], edge_index: int) -> float:
    try:
        w = weights[edge_index]
    except KeyError:
        raise DomainError(f"no weight supplied for closed edge {edge_index}") from None
    if not (np.isfinite(w) and w > 0):
        raise DomainError(f"weight for edge {edge_index} must be positive and finite, got {w}")
    return w


def laplacian_inverse_entry(forest: ForestConfig, weights: Mapping[int, float], a: int, b: int) -> float:
    """Entry (a, b) of the inverse reduced weighted Laplacian.

    Zero when a and b lie in different trees; otherwise the sum of 1/weight
    over the edges shared by both root paths, i.e. the root path of their
    lowest common ancestor.  Read from the root-path sums behind
    ``path_sum_matrix``, so it equals that matrix's entry bit for bit; never
    by dense inversion.  Every closed edge needs a weight.
    """
    for node in (a, b):
        forest._require_node(node)
        if forest.grid.is_substation(node):
            raise DomainError(f"node {node} is a substation; inverse Laplacian rows cover load nodes only")
    meet = forest.lca(a, b)
    if meet is None or forest.grid.is_substation(meet):
        return 0.0
    position, size = _preorder(forest)
    return float(_root_path_sums(forest, weights, position, size)[position[meet]])


def laplacian_row_difference(forest: ForestConfig, weights: Mapping[int, float],
                             child: int, parent: int, node: int) -> float:
    """Difference of inverse-Laplacian rows between a node and its parent,
    evaluated at ``node``: 1/w(child,parent) when node descends from child,
    else exactly 0."""
    forest._require_node(node)
    forest._require_node(child)
    if forest.parent.get(child) != parent:
        raise DomainError(f"node {parent} is not the parent of node {child}")
    ei = forest.parent_edge[child]
    if forest.tree_of[node] != forest.tree_of[child]:
        return 0.0
    if node in forest.descendants(child):
        return 1.0 / _weight_of(weights, ei)
    return 0.0


def _preorder(forest: ForestConfig) -> tuple[dict[int, int], dict[int, int]]:
    """Depth-first preorder of the loads (trees in index order, children by
    ascending id): each load's position and subtree size, so that every
    descendant set is one run of consecutive positions."""
    position: dict[int, int] = {}
    for root in forest.grid.substation_ids:
        stack = list(reversed(forest.children[root]))
        while stack:
            nid = stack.pop()
            position[nid] = len(position)
            stack.extend(reversed(forest.children[nid]))
    size: dict[int, int] = {}
    for nid in reversed(position):
        size[nid] = 1 + sum(size[ch] for ch in forest.children[nid])
    return position, size


def _root_path_sums(forest: ForestConfig, weights: Mapping[int, float],
                    position: dict[int, int], size: dict[int, int]) -> np.ndarray:
    """P(v), the sum of 1/weight over the root path of every load v, indexed
    by the preorder ``position`` of v (``size`` gives the subtree sizes).

    Each edge adds its 1/weight to its child's whole subtree, edges taken in
    ascending child id.  That fixes the order of every sequential sum, and
    with it the last bits of every entry; a root-to-leaf prefix sum would add
    in depth order instead, which differs wherever ids are not depth-ordered.
    """
    sums = np.zeros(len(position))
    for nid in forest.grid.load_ids:
        start = position[nid]
        sums[start:start + size[nid]] += 1.0 / _weight_of(weights, forest.parent_edge[nid])
    return sums


def path_sum_matrix(forest: ForestConfig, weights: Mapping[int, float]) -> np.ndarray:
    """Dense inverse reduced Laplacian over the canonical (ascending load id)
    index space, in O(N^2).

    Entry (a, b) is P(lca(a, b)), the root-path sum of the pair's lowest
    common ancestor, or 0 when that is a substation or the pair spans two
    trees; it equals ``laplacian_inverse_entry(forest, weights, a, b)``.
    The matrix is filled in preorder, where descendant sets are contiguous,
    writing each pair once: node v writes its own row and column over its
    descendants, and each child subtree of v against the subtrees of v's
    earlier children.
    """
    position, size = _preorder(forest)
    sums = _root_path_sums(forest, weights, position, size)
    n = len(position)
    out = np.zeros((n, n))
    for nid, v in position.items():
        value = sums[v]
        out[v, v:v + size[nid]] = value
        out[v + 1:v + size[nid], v] = value
        for ch in forest.children[nid]:
            lo, hi = position[ch], position[ch] + size[ch]
            out[lo:hi, v + 1:lo] = value
            out[v + 1:lo, lo:hi] = value
    canon = np.array([position[nid] for nid in forest.grid.load_ids], dtype=np.intp)
    return out[np.ix_(canon, canon)]


# -- weighted Laplacians -----------------------------------------------------

_WEIGHT_TAGS = ("g", "beta", "1/r", "1/x")


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
        try:
            return {"g": self.h_g, "beta": self.h_beta, "1/r": self.h_inv_r, "1/x": self.h_inv_x}[tag]
        except KeyError:
            raise DomainError(f"unknown weight tag {tag!r}; expected one of {_WEIGHT_TAGS}") from None


def edge_weights(forest: ForestConfig, tag: str) -> dict[int, float]:
    """Per-closed-edge weight vector for a weight source tag."""
    out = {}
    for ei in forest.closed_edges:
        e = forest.grid.edges[ei]
        if tag == "g":
            out[ei] = e.conductance
        elif tag == "beta":
            out[ei] = e.susceptance
        elif tag == "1/r":
            out[ei] = 1.0 / e.r
        elif tag == "1/x":
            out[ei] = 1.0 / e.x
        else:
            raise DomainError(f"unknown weight tag {tag!r}; expected one of {_WEIGHT_TAGS}")
    return out


def weighted_laplacians(forest: ForestConfig) -> WeightedLaplacians:
    """Assemble H_y = M^T diag(w_y) M for the four weight sources."""
    inc = build_reduced_incidence(forest)
    mats = {}
    for tag in _WEIGHT_TAGS:
        w = edge_weights(forest, tag)
        diag = np.array([w[ei] for ei in inc.edge_order])
        mats[tag] = inc.matrix.T @ (diag[:, None] * inc.matrix)
    return WeightedLaplacians(
        h_g=mats["g"], h_beta=mats["beta"], h_inv_r=mats["1/r"], h_inv_x=mats["1/x"],
        node_order=inc.node_order, edge_order=inc.edge_order,
    )
