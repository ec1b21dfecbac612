"""Random grid and forest generation.

Grids are built the way the test feeders are described: a random
base-constrained spanning forest of operational lines, a handful of
normally-open tie switches, and extra non-operational lines whose
impedances are drawn uniformly between the minimum and maximum impedances
of the operational lines.  When the forest has several trees the first
open lines bridge them so the fully-closed grid is connected.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..grid import LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge, _is_finite

__all__ = ["generate_random_grid", "add_open_lines", "random_spanning_forest"]

_MAX_PAIR_ATTEMPTS = 200


def _draw_new_pair(rng, candidates_a, candidates_b, used: set) -> tuple[int, int]:
    for _ in range(_MAX_PAIR_ATTEMPTS):
        u = int(rng.choice(candidates_a))
        v = int(rng.choice(candidates_b))
        if u == v:
            continue
        pair = (u, v) if u <= v else (v, u)
        if pair not in used:
            used.add(pair)
            return pair
    raise DomainError("could not place a new line: too few distinct node pairs left")


def generate_random_grid(n_loads: int, k_subs: int, n_extra_lines: int, *, n_tie_lines: int = 0,
                         r_range: tuple[float, float] = (0.05, 0.3),
                         x_range: tuple[float, float] = (0.05, 0.3),
                         seed=0, name: str = "") -> tuple[GridGraph, ForestConfig]:
    """Generate a random grid together with its operational forest.

    Every substation is seeded with one load and the remaining loads attach
    to uniformly chosen earlier nodes, giving a random recursive forest.
    Deterministic per seed.
    """
    if not (n_loads >= k_subs >= 1):
        raise DomainError(f"need n_loads >= k_subs >= 1, got {n_loads} and {k_subs}")
    if n_tie_lines < 0 or n_extra_lines < 0:
        raise DomainError("line counts must be non-negative")
    for option, bounds in (("r_range", r_range), ("x_range", x_range)):
        try:
            low, high = bounds
        except (TypeError, ValueError):
            low = high = None
        if not (_is_finite(low) and _is_finite(high) and 0 < low <= high):
            raise DomainError(f"{option} must be two finite numbers with 0 < low <= high, got {bounds!r}")
    n_open = n_tie_lines + n_extra_lines
    if k_subs > 1 and n_open < k_subs - 1:
        raise DomainError(
            f"{k_subs} trees need at least {k_subs - 1} open lines to keep the closed grid connected, "
            f"got {n_open}")
    total_nodes = n_loads + k_subs
    if n_loads + n_open > total_nodes * (total_nodes - 1) // 2:
        raise DomainError("more lines requested than distinct node pairs exist")

    rng = np.random.default_rng(seed)
    try:
        subs = list(range(k_subs))
        loads = list(range(k_subs, k_subs + n_loads))
    except (OverflowError, MemoryError):
        raise DomainError(f"cannot hold a grid of {n_loads} loads and {k_subs} substations") from None

    nodes = tuple(GridNode(id=i, kind=SUBSTATION) for i in subs) + tuple(GridNode(id=i, kind=LOAD) for i in loads)
    edges: list[LineEdge] = []
    used: set[tuple[int, int]] = set()
    tree_members: dict[int, list[int]] = {k: [subs[k]] for k in range(k_subs)}
    placed: list[int] = list(subs)
    tree_of: dict[int, int] = {s: k for k, s in enumerate(subs)}

    for j, load in enumerate(loads):
        parent = subs[j] if j < k_subs else int(rng.choice(placed))
        k = tree_of[parent]
        pair = (parent, load) if parent <= load else (load, parent)
        used.add(pair)
        edges.append(LineEdge(u=pair[0], v=pair[1],
                              r=float(rng.uniform(*r_range)), x=float(rng.uniform(*x_range))))
        tree_of[load] = k
        tree_members[k].append(load)
        placed.append(load)

    closed = tuple(range(len(edges)))
    r_lo, r_hi = min(e.r for e in edges), max(e.r for e in edges)
    x_lo, x_hi = min(e.x for e in edges), max(e.x for e in edges)

    open_pairs: list[tuple[int, int]] = []
    if k_subs > 1:
        order = [int(t) for t in rng.permutation(k_subs)]
        for a, b in zip(order, order[1:]):
            open_pairs.append(_draw_new_pair(rng, tree_members[a], tree_members[b], used))
    all_ids = subs + loads
    while len(open_pairs) < n_open:
        open_pairs.append(_draw_new_pair(rng, all_ids, all_ids, used))

    for i, pair in enumerate(open_pairs):
        edges.append(LineEdge(u=pair[0], v=pair[1],
                              r=float(rng.uniform(r_lo, r_hi)), x=float(rng.uniform(x_lo, x_hi)),
                              switchable=i < n_tie_lines))

    grid = GridGraph(nodes=nodes, edges=tuple(edges), name=name)
    return grid, ForestConfig.from_closed_edges(grid, closed)


def random_spanning_forest(grid: GridGraph, seed=0) -> ForestConfig:
    """Pick a uniform-ish random base-constrained spanning forest of a grid.

    Randomized Kruskal with all substations pre-merged into one component,
    so no accepted edge ever joins two substations and every tree keeps
    exactly one root.
    """
    rng = np.random.default_rng(seed)
    ids = [n.id for n in grid.nodes]
    comp = {nid: nid for nid in ids}
    virtual_root = object()
    for sub in grid.substation_ids:
        comp[sub] = virtual_root
    comp[virtual_root] = virtual_root

    def find(n):
        while comp[n] != n:
            comp[n] = comp[comp[n]]
            n = comp[n]
        return n

    closed = []
    for ei in rng.permutation(len(grid.edges)):
        e = grid.edges[int(ei)]
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            continue
        comp[ru] = rv
        closed.append(int(ei))
        if len(closed) == grid.n_loads:
            break
    return ForestConfig.from_closed_edges(grid, closed)


def add_open_lines(grid: GridGraph, forest: ForestConfig, count: int, seed=0) -> tuple[GridGraph, ForestConfig]:
    """Augment a grid with extra non-operational lines, impedances uniform
    within the [min, max] range of the operational lines.  Returns the new
    grid and the same forest re-bound to it."""
    if count < 0:
        raise DomainError("count must be non-negative")
    rng = np.random.default_rng(seed)
    closed_edges = [grid.edges[ei] for ei in forest.closed_edges]
    r_lo, r_hi = min(e.r for e in closed_edges), max(e.r for e in closed_edges)
    x_lo, x_hi = min(e.x for e in closed_edges), max(e.x for e in closed_edges)
    used = {e.pair for e in grid.edges}
    all_ids = [n.id for n in grid.nodes]
    new_edges = list(grid.edges)
    for _ in range(count):
        pair = _draw_new_pair(rng, all_ids, all_ids, used)
        new_edges.append(LineEdge(u=pair[0], v=pair[1],
                                  r=float(rng.uniform(r_lo, r_hi)), x=float(rng.uniform(x_lo, x_hi))))
    new_grid = GridGraph(nodes=grid.nodes, edges=tuple(new_edges), name=grid.name)
    return new_grid, ForestConfig.from_closed_edges(new_grid, forest.closed_edges)
