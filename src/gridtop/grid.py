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

A forest is traversed once, when it is built: one depth-first pass per tree
validates it and records the load preorder, in which every node's subtree
(its descendant set) is one run of consecutive positions.  Every ancestry
question reads those runs: descendant sets are slices, and "v lies below u"
is one interval test.

The dense inverse Laplacian (``path_sum_matrix``) costs O(N^2): entry
(a, b) is P(lca(a, b)), the root-path sum of the pair's lowest common
ancestor.  P is computed once for all loads, and each node pair is written
once, in preorder.  ``laplacian_inverse_entry`` adds up the same P for one
pair, in the same order, in O(depth log depth).
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, ParseError, StructureError

SUBSTATION = "substation"
LOAD = "load"


def _repeated(ids) -> int | None:
    """The first id that ``ids`` lists twice, or None."""
    seen = set()
    for nid in ids:
        if nid in seen:
            return nid
        seen.add(nid)
    return None


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
        if (nid := _repeated(ids)) is not None:
            raise StructureError(f"duplicate node ids: node id {nid} is listed twice")
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
                if not (_is_finite(val) and val > 0):
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
        return len(self.load_ids)

    @property
    def n_substations(self) -> int:
        return len(self.substation_ids)

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


def _is_index(value) -> bool:
    # The exact-type test keeps the common case cheap: the abstract-class
    # check is several times slower, and every forest build runs this per edge.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_number(value) -> bool:
    return type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _is_finite(value) -> bool:
    """A real number, not a bool, that is finite."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _list_of(accept=lambda item: True):
    """A predicate taking a list or tuple whose every item ``accept`` takes."""
    return lambda value: isinstance(value, (list, tuple)) and all(map(accept, value))


# The names the readers give a whole grid file or plan. A key directly
# inside one is located by its bare name ("nodes", "trials"), a deeper key by
# its dotted path ("meta.name", "nodes[1].id", "grid.generator.seed").
_DOCUMENTS = ("document", "plan")
_REQUIRED = object()


def _key_path(path: str, key) -> str:
    return str(key) if path in _DOCUMENTS else f"{path}.{key}"


def _entry(doc: Mapping, key: str, path: str, accept, noun: str, default=_REQUIRED):
    """``doc[key]`` once ``accept`` takes it, or ``default`` when the key is
    absent and has one.  ``accept`` is a predicate, or a type the value must
    be an instance of.  ``path`` locates ``doc``: a missing key raises a
    ParseError there, and a value ``accept`` refuses one at the key's path
    that says it expected ``noun``."""
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"missing required key {key!r}", path)
        return default
    value = doc[key]
    if not (isinstance(value, accept) if isinstance(accept, type) else accept(value)):
        raise ParseError(f"expected {noun}, got {reprlib.repr(value)}", _key_path(path, key))
    return value


def _known_keys(doc: Mapping, allowed, path: str, what: str) -> None:
    """Raise a ParseError at the path of the first key of ``doc`` that is not
    in ``allowed``; ``what`` names the object, as in "a plan"."""
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unknown key; {what} takes {', '.join(allowed)}", _key_path(path, key))


@dataclass(frozen=True)
class ForestConfig:
    """A base-constrained spanning forest of a grid.

    ``closed_edges`` are indices into ``grid.edges``; they must form a
    spanning forest with exactly one substation per tree.  Trees are indexed
    by the ascending order of their substation ids.  The parent relation,
    depths, and the preorder runs that give descendant sets are derived once
    and cached; instances are immutable and safe to share across threads.
    """

    grid: GridGraph
    closed_edges: tuple[int, ...]
    # Set by ``_derive``, as are ``_load_preorder`` and ``_span``.
    tree_of: dict[int, int] = field(init=False, compare=False, repr=False)
    # Parent node of every load node.
    parent: dict[int, int] = field(init=False, compare=False, repr=False)
    # Closed-edge index joining every load node to its parent.
    parent_edge: dict[int, int] = field(init=False, compare=False, repr=False)
    depth: dict[int, int] = field(init=False, compare=False, repr=False)
    children: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)

    # Equivalence note: a K-tree forest is the same object as the single
    # spanning tree obtained by joining all substations to an artificial
    # super-node root. Everything here keeps the trees native instead; the
    # block structure of the reduced matrices carries the same information.

    @classmethod
    def from_closed_edges(cls, grid: GridGraph, closed: Iterable[int]) -> "ForestConfig":
        closed = tuple(closed)
        if all(map(_is_index, closed)):  # otherwise __post_init__ names the bad index
            closed = tuple(sorted(closed))
        return cls(grid=grid, closed_edges=closed)

    def __post_init__(self):
        seen = set()
        for ei in self.closed_edges:
            if not _is_index(ei):
                raise StructureError(f"closed edge index {ei!r} is not an integer")
            if not (0 <= ei < len(self.grid.edges)):
                raise StructureError(f"closed edge index {ei} is not an edge of the grid")
            if ei in seen:
                raise StructureError(f"closed edge index {ei} listed twice")
            seen.add(ei)
        self._derive()  # populates the cached maps and validates the forest

    def _derive(self):
        """The forest's one traversal: a depth-first pass per tree, trees in
        substation-index order and neighbours by ascending id.  It validates
        the forest and records the parent relation, the load preorder, and
        each node's subtree as the run [start, stop) of preorder positions
        (a substation's run is its whole tree)."""
        grid = self.grid
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in grid.nodes}
        for ei in self.closed_edges:
            e = grid.edges[ei]
            adj[e.u].append((e.v, ei))
            adj[e.v].append((e.u, ei))
        for neighbours in adj.values():
            neighbours.sort()
        substations = set(grid.substation_ids)

        tree_of: dict[int, int] = {}
        parent: dict[int, int] = {}
        parent_edge: dict[int, int] = {}
        depth: dict[int, int] = {}
        children: dict[int, list[int]] = {n.id: [] for n in grid.nodes}
        preorder: list[int] = []
        span: dict[int, tuple[int, int]] = {}
        for k, root in enumerate(grid.substation_ids):
            tree_of[root] = k
            depth[root] = 0
            stack = [(root, len(preorder), iter(adj[root]))]  # (node, its start, neighbours left)
            while stack:
                cur, start, todo = stack[-1]
                for nb, ei in todo:
                    if nb == parent.get(cur):
                        continue
                    if nb in tree_of:
                        raise StructureError(f"closed edges contain a cycle through node {nb}")
                    if nb in substations:
                        raise StructureError(f"tree {k} contains two substations ({root} and {nb})")
                    tree_of[nb] = k
                    parent[nb] = cur
                    parent_edge[nb] = ei
                    depth[nb] = depth[cur] + 1
                    children[cur].append(nb)
                    stack.append((nb, len(preorder), iter(adj[nb])))
                    preorder.append(nb)
                    break
                else:
                    stack.pop()
                    span[cur] = (start, len(preorder))
        unreached = sorted(n.id for n in grid.nodes if n.id not in tree_of)
        if unreached:
            raise StructureError(f"closed edges do not span the grid (unreached nodes: {unreached})")
        if len(self.closed_edges) != grid.n_loads:
            # Coverage plus acyclicity already imply this; kept as a guard.
            raise StructureError("closed edge count does not match a base-constrained spanning forest")

        object.__setattr__(self, "tree_of", tree_of)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "parent_edge", parent_edge)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "children", {k: tuple(v) for k, v in children.items()})
        object.__setattr__(self, "_load_preorder", tuple(preorder))
        object.__setattr__(self, "_span", span)

    # -- structure lookups --------------------------------------------------

    @property
    def n_trees(self) -> int:
        return self.grid.n_substations

    @cached_property
    def load_order(self) -> tuple[int, ...]:
        """Load ids sorted by (tree index, node id): the block ordering used
        by reduced incidence and Laplacian matrices."""
        return tuple(sorted(self.grid.load_ids, key=lambda n: (self.tree_of[n], n)))

    @cached_property
    def load_tree_index(self) -> np.ndarray:
        """Tree index of every load node in canonical (ascending id) order."""
        out = np.array([self.tree_of[n] for n in self.grid.load_ids], dtype=np.intp)
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
        return tuple(sorted(self.grid.load_ids, key=lambda n: (self.depth[n], n)))

    def _require_node(self, node: int):
        if node not in self.grid.kind_of:
            raise DomainError(f"unknown node {node}")

    def root_path_edges(self, node: int) -> tuple[int, ...]:
        """Closed-edge indices on the path from ``node`` to its slack bus,
        ordered from the node upward."""
        self._require_node(node)
        path = []
        cur = node
        while cur in self.parent:
            path.append(self.parent_edge[cur])
            cur = self.parent[cur]
        return tuple(path)

    def _contains(self, u: int, v: int) -> bool:
        """Whether v lies in the subtree of u (u itself included): one test
        of v's preorder position against u's run.  A substation has no
        position, and lies only in its own subtree."""
        if v == u:
            return True
        if v not in self.parent:
            return False
        start, stop = self._span[u]
        return start <= self._span[v][0] < stop

    def lca(self, a: int, b: int) -> int | None:
        """Deepest common node on the root paths of a and b; None when the
        nodes lie in different trees."""
        self._require_node(a)
        self._require_node(b)
        if self.tree_of[a] != self.tree_of[b]:
            return None
        while not self._contains(a, b):
            a = self.parent[a]
        return a

    def descendants(self, node: int) -> frozenset[int]:
        """All nodes whose root path passes through ``node``, including the
        node itself; for a substation this is its whole tree."""
        self._require_node(node)
        start, stop = self._span[node]
        return frozenset((node, *self._load_preorder[start:stop]))

    @cached_property
    def descendant_load_indices(self) -> dict[int, np.ndarray]:
        """For every load node, the canonical (ascending load id) indices of
        the loads in its descendant set, itself included."""
        canon = np.array([self.grid.load_index[nid] for nid in self._load_preorder], dtype=np.intp)
        return {nid: np.sort(canon[slice(*self._span[nid])]) for nid in self.grid.load_ids}


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

    # A tree's loads take the same positions in preorder as in tree-major order.
    trees = (forest._span[root] for root in forest.grid.substation_ids)
    blocks = tuple((start, stop) for start, stop in trees if stop > start)
    return ReducedIncidence(matrix=m, node_order=order, edge_order=tuple(edge_order), blocks=blocks)


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
    if not forest._contains(child, node):  # the edge is off the node's root path
        return 0
    tail, _ = _edge_direction(forest, edge_index, orientation)
    return 1 if tail == child else -1


# -- inverse Laplacian combinatorics ----------------------------------------


def _weight_of(weights: Mapping[int, float], edge_index: int) -> float:
    try:
        w = weights[edge_index]
    except KeyError:
        raise DomainError(f"no weight supplied for closed edge {edge_index}") from None
    if not (_is_finite(w) and w > 0):
        raise DomainError(f"weight for edge {edge_index} must be positive and finite, got {w}")
    return w


def laplacian_inverse_entry(forest: ForestConfig, weights: Mapping[int, float], a: int, b: int) -> float:
    """Entry (a, b) of the inverse reduced weighted Laplacian.

    Zero when a and b lie in different trees; otherwise the sum of 1/weight
    over the edges shared by both root paths, i.e. the root path of their
    lowest common ancestor (the meet).  The lines are added in ascending
    child id, starting from 0.0, as ``_root_path_sums`` adds them, so the
    value equals the ``path_sum_matrix`` entry bit for bit; never by dense
    inversion.  Every line on the meet's root path needs a weight.
    """
    for node in (a, b):
        forest._require_node(node)
        if forest.grid.is_substation(node):
            raise DomainError(f"node {node} is a substation; inverse Laplacian rows cover load nodes only")
    meet = forest.lca(a, b)
    path = []
    while meet in forest.parent:  # stops at the substation, at once when the meet is one or None
        path.append(meet)
        meet = forest.parent[meet]
    total = 0.0
    for nid in sorted(path):
        total += 1.0 / _weight_of(weights, forest.parent_edge[nid])
    return total


def laplacian_row_difference(forest: ForestConfig, weights: Mapping[int, float],
                             child: int, parent: int, node: int) -> float:
    """Difference of inverse-Laplacian rows between a node and its parent,
    evaluated at ``node``: 1/w(child,parent) when node descends from child,
    else exactly 0."""
    forest._require_node(node)
    forest._require_node(child)
    if forest.parent.get(child) != parent:
        raise DomainError(f"node {parent} is not the parent of node {child}")
    if forest._contains(child, node):
        return 1.0 / _weight_of(weights, forest.parent_edge[child])
    return 0.0


def _root_path_sums(forest: ForestConfig, weights: Mapping[int, float]) -> np.ndarray:
    """P(v), the sum of 1/weight over the root path of every load v, indexed
    by the preorder position of v.

    Each edge adds its 1/weight to its child's whole subtree, edges taken in
    ascending child id.  That fixes the order of every sequential sum, and
    with it the last bits of every entry; a root-to-leaf prefix sum would add
    in depth order instead, which differs wherever ids are not depth-ordered.
    """
    sums = np.zeros(len(forest._load_preorder))
    for nid in forest.grid.load_ids:
        sums[slice(*forest._span[nid])] += 1.0 / _weight_of(weights, forest.parent_edge[nid])
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
    span = forest._span
    sums = _root_path_sums(forest, weights)
    n = len(sums)
    out = np.zeros((n, n))
    for v, nid in enumerate(forest._load_preorder):
        value = sums[v]
        stop = span[nid][1]
        out[v, v:stop] = value
        out[v + 1:stop, v] = value
        for ch in forest.children[nid]:
            lo, hi = span[ch]
            out[lo:hi, v + 1:lo] = value
            out[v + 1:lo, lo:hi] = value
    canon = np.array([span[nid][0] for nid in forest.grid.load_ids], dtype=np.intp)
    return out[np.ix_(canon, canon)]


# -- weighted Laplacians -----------------------------------------------------

# Weight tag -> (its WeightedLaplacians field, the weight of a line).
_WEIGHTS = {
    "g": ("h_g", lambda e: e.conductance),
    "beta": ("h_beta", lambda e: e.susceptance),
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


def edge_weights(forest: ForestConfig, tag: str) -> dict[int, float]:
    """Per-closed-edge weight vector for a weight source tag."""
    weight = _weight_source(tag)[1]
    return {ei: weight(forest.grid.edges[ei]) for ei in forest.closed_edges}


def weighted_laplacians(forest: ForestConfig) -> WeightedLaplacians:
    """Assemble H_y = M^T diag(w_y) M for the four weight sources."""
    inc = build_reduced_incidence(forest)
    mats = {}
    for name, weight in _WEIGHTS.values():
        diag = np.array([weight(forest.grid.edges[ei]) for ei in inc.edge_order])
        mats[name] = inc.matrix.T @ (diag[:, None] * inc.matrix)
    return WeightedLaplacians(**mats, node_order=inc.node_order, edge_order=inc.edge_order)
