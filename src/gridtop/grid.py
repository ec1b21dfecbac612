"""Meshed grid, operational spanning forests, and tree combinatorics.

The designed network is a connected graph with switches on its lines; the
operational configuration closes a subset of lines that forms a spanning
forest in which every tree contains exactly one substation (its root).  The
moment and learning machinery elsewhere in the package never inverts a
matrix at runtime: the inverse reduced weighted Laplacian reduces to
root-path sums on the forest, computed here.  The dense incidence and
Laplacian matrices of the paper are built only by the tests, which check
these routes against plain linear algebra.

A forest is traversed once, when it is built: one depth-first pass per tree
validates it and records the load preorder, in which every node's subtree
(its descendant set) is one run of consecutive positions.  Every ancestry
question reads those runs: descendant sets are slices, and "v lies below u"
is one interval test.

The dense inverse Laplacian (``path_sum_matrix``) costs O(N^2): entry
(a, b) is P(lca(a, b)), the root-path sum of the pair's lowest common
ancestor.  P is computed once for all loads, and each node pair is written
once, in preorder.
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

    @cached_property
    def descendant_load_indices(self) -> dict[int, np.ndarray]:
        """For every load node, the canonical (ascending load id) indices of
        the loads in its descendant set, itself included.  No runtime path
        reads it; perfbench/spans.py counts path-sum work with it."""
        canon = np.array([self.grid.load_index[nid] for nid in self._load_preorder], dtype=np.intp)
        return {nid: np.sort(canon[slice(*self._span[nid])]) for nid in self.grid.load_ids}


# -- inverse Laplacian combinatorics ----------------------------------------


def _weight_of(weights: Mapping[int, float], edge_index: int) -> float:
    try:
        w = weights[edge_index]
    except KeyError:
        raise DomainError(f"no weight supplied for closed edge {edge_index}") from None
    if not (_is_finite(w) and w > 0):
        raise DomainError(f"weight for edge {edge_index} must be positive and finite, got {w}")
    return w


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
    trees.  The matrix is filled in preorder, where descendant sets are
    contiguous, writing each pair once: node v writes its own row and column
    over its descendants, and each child subtree of v against the subtrees
    of v's earlier children.
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
