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
validates it and records the parent relation, depths and children.  Every
tree sweep of the package runs on one layout derived from those, the level
plan: working arrays hold one row per load node, sorted by (depth, id), and
a sweep visits one depth level at a time.  Two kernels run on it: subtree
sums, leaves to root, and root-path sums, root to leaves.

The dense inverse Laplacian (``path_sum_matrix``) is D^T diag(1/w) D, with D
the subtree indicator: entry (a, b) sums 1/w over the lines on the root path
that a and b share.  Two root-path sweeps give it in O(N^2); each entry adds
its shared path root first, so its bits do not depend on how the nodes are
numbered.
"""

from __future__ import annotations

import itertools
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
        if not self._lines_hold(ids):
            self._check_lines(ids)
        if self.n_substations < 1:
            raise StructureError("grid has no substation")
        if self.n_loads < 1:
            raise StructureError("grid has no load node")
        self._check_connected()

    def _lines_hold(self, ids) -> bool:
        """Whether ``_check_lines`` would pass, decided in bulk: distinct int
        ids, int endpoints that are known ids, no self-loop or repeated
        pair, and float ``r``, ``x`` and r^2 + x^2 all positive and finite.
        False where any of that fails or cannot be told this way, and
        ``_check_lines`` must decide."""
        us = [e.u for e in self.edges]
        vs = [e.v for e in self.edges]
        if not {int}.issuperset(map(type, itertools.chain(ids, us, vs))):
            return False
        id_set = set(ids)
        pairs = {(u, v) if u < v else (v, u) for u, v in zip(us, vs) if u != v}
        if not (len(id_set) == len(ids) and id_set.issuperset(us) and id_set.issuperset(vs)
                and len(pairs) == len(self.edges)):
            return False
        rs = [e.r for e in self.edges]
        xs = [e.x for e in self.edges]
        if not {float}.issuperset(map(type, itertools.chain(rs, xs))):
            return False
        r, x = np.array(rs), np.array(xs)
        with np.errstate(over="ignore"):  # an overflowing square is refused below
            z2 = r * r + x * x
        return bool(((0.0 < r) & (r < math.inf) & (0.0 < x) & (x < math.inf) & (0.0 < z2) & (z2 < math.inf)).all())

    def _check_lines(self, ids):
        """Raise the StructureError that names the first repeated id, or
        the first line with an unknown endpoint, a self-loop, a repeated
        pair or an impedance that is not positive and finite."""
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
            if not 0.0 < e.r * e.r + e.x * e.x < math.inf:  # dc divides by it; the level plan squares r and x
                raise StructureError(f"edge {i} ({e.u},{e.v}): r^2 + x^2 must be positive and finite as a float, "
                                     f"got r {e.r}, x {e.x}")

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
    depths and children are derived once and cached; instances are
    immutable and safe to share across threads.
    """

    grid: GridGraph
    closed_edges: tuple[int, ...]
    # Set by ``_derive``.
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
        the forest and records the parent relation, depths and children (by
        ascending id)."""
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
        for k, root in enumerate(grid.substation_ids):
            tree_of[root] = k
            depth[root] = 0
            stack = [(root, iter(adj[root]))]  # (node, neighbours left)
            while stack:
                cur, todo = stack[-1]
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
                    stack.append((nb, iter(adj[nb])))
                    break
                else:
                    stack.pop()
        unreached = sorted(n.id for n in grid.nodes if n.id not in tree_of)
        if unreached:
            raise StructureError(f"closed edges do not span the grid (unreached nodes: {unreached})")

        object.__setattr__(self, "tree_of", tree_of)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "parent_edge", parent_edge)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "children", {k: tuple(v) for k, v in children.items()})

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
        the loads in its descendant set, itself included, merged leaves
        first.  No runtime path reads it; perfbench/spans.py counts path-sum
        work with it."""
        idx = self.grid.load_index
        out: dict[int, np.ndarray] = {}
        for nid in reversed(self.loads_by_depth):
            members = [np.array([idx[nid]], dtype=np.intp), *(out[ch] for ch in self.children[nid])]
            out[nid] = np.sort(np.concatenate(members))
        return out


# -- the level plan -----------------------------------------------------------


@dataclass(frozen=True)
class _LevelPlan:
    """Row layout of every tree sweep over whole trees of one forest.

    A working array has one row per load node, sorted by (depth, id), one
    column per sample, moment entry or load, and a last *outside* row, which
    the plan indexes as -1.  The outside row is 0 in flow arrays, where it
    pads the child-row matrices, and holds the substation value in voltage
    arrays, where it is the parent row of every node attached to a
    substation.
    """

    canon: np.ndarray                 # canonical (ascending-id) index of each row's load
    levels: tuple[slice, ...]         # the rows of each depth level, substation side first
    children: tuple[np.ndarray, ...]  # per level: (max_children, width) child rows, by ascending id
    parents: tuple[np.ndarray, ...]   # per level: the parent row of each node
    r: np.ndarray                     # line resistance of each row, an (n, 1) column
    x: np.ndarray                     # line reactance
    z2: np.ndarray                    # r^2 + x^2


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _build_level_plan(forest: ForestConfig, order) -> _LevelPlan:
    """The sweep layout over the loads ``order``: whole trees, sorted by
    (depth, id)."""
    row = {nid: i for i, nid in enumerate(order)}
    levels, children, parents = [], [], []
    for _, level in itertools.groupby(order, key=forest.depth.__getitem__):
        level = tuple(level)
        kids = np.full((max(len(forest.children[nid]) for nid in level), len(level)), -1, dtype=np.intp)
        for j, nid in enumerate(level):
            kids[:len(forest.children[nid]), j] = [row[ch] for ch in forest.children[nid]]
        start = row[level[0]]
        levels.append(slice(start, start + len(level)))
        children.append(kids)
        parents.append(np.array([row.get(forest.parent[nid], -1) for nid in level], dtype=np.intp))
    lines = [forest.grid.edges[forest.parent_edge[nid]] for nid in order]
    return _LevelPlan(
        canon=np.array([forest.grid.load_index[nid] for nid in order], dtype=np.intp),
        levels=tuple(levels), children=tuple(children), parents=tuple(parents),
        r=_column([e.r for e in lines]), x=_column([e.x for e in lines]),
        z2=_column([e.r ** 2 + e.x ** 2 for e in lines]),
    )


def _level_plan(forest: ForestConfig) -> _LevelPlan:
    """The whole forest's sweep layout, built on first use and kept in its
    memo."""
    plan = forest.memo.get("level_plan")
    if plan is None:
        plan = forest.memo["level_plan"] = _build_level_plan(forest, forest.loads_by_depth)
    return plan


def _rows(plan: _LevelPlan, batch: np.ndarray) -> np.ndarray:
    """A canonical (m, N) batch as a working array, outside row 0."""
    out = np.zeros((plan.canon.size + 1, batch.shape[0]))
    out[:-1] = batch.T[plan.canon]
    return out


def _canonical(plan: _LevelPlan, rows: np.ndarray) -> np.ndarray:
    """A working array as a canonical (m, N) batch."""
    out = np.empty((rows.shape[1], plan.canon.size))
    out[:, plan.canon] = rows[:-1].T
    return out


def _outside_row(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with the zero outside row of a level-plan working array."""
    return np.concatenate([a, np.zeros((1, *a.shape[1:]))])


def _subtree_sums(plan: _LevelPlan, rows: np.ndarray) -> np.ndarray:
    """Replace every row of a working array (outside row 0) by the sum over
    its node's subtree, in place.  Children are added one at a time in
    ascending id order; a node with fewer children adds the outside row's
    exact 0.0 instead."""
    for level, kids in zip(reversed(plan.levels), reversed(plan.children)):
        acc = rows[level]
        for k in kids:
            acc += rows[k]
    return rows


def _root_path_sums(plan: _LevelPlan, rows: np.ndarray) -> np.ndarray:
    """Replace every row of a working array (outside row 0) by the sum over
    its node's root path, in place, root first."""
    for level, par in zip(plan.levels, plan.parents):
        rows[level] += rows[par]
    return rows


def _path_sums(plan: _LevelPlan, block: np.ndarray) -> np.ndarray:
    """D^T block D over the plan's rows, leaving ``block`` as it is."""
    half = _root_path_sums(plan, _outside_row(block))[:-1].T
    return _root_path_sums(plan, _outside_row(half))[:-1].T


# -- inverse Laplacian combinatorics ----------------------------------------


def _weight_of(weights: Mapping[int, float], edge_index: int) -> float:
    try:
        w = weights[edge_index]
    except KeyError:
        raise DomainError(f"no weight supplied for closed edge {edge_index}") from None
    if not (_is_finite(w) and w > 0):
        raise DomainError(f"weight for edge {edge_index} must be positive and finite, got {w}")
    return w


def path_sum_matrix(forest: ForestConfig, weights: Mapping[int, float]) -> np.ndarray:
    """Dense inverse reduced Laplacian over the canonical (ascending load id)
    index space, in O(N^2).

    Entry (a, b) is the sum of 1/weight over the lines on the root path that
    a and b share, or 0 when they share none (their paths meet at a
    substation, or they lie in two trees).  It is D^T diag(1/w) D by two
    root-path sweeps on the level plan, so every entry adds its shared path
    root first.
    """
    plan = _level_plan(forest)
    sums = _path_sums(plan, np.diag([1.0 / _weight_of(weights, forest.parent_edge[nid])
                                     for nid in forest.loads_by_depth]))
    out = np.empty_like(sums)
    out[np.ix_(plan.canon, plan.canon)] = sums
    return out
