"""Grid documents for the feeder_scale workload.

The generator belongs to the benchmark, not to gridtop, so the inputs do
not change when the program's own generator does.  One tree is a deep spine
with short laterals (the worst case for root-path combinatorics, whose cost
grows with the sum of squared descendant-set sizes); the others are random
recursive trees.  About a quarter as many open lines as loads are added,
the first ones bridging the trees so the fully closed grid is connected.
"""

from __future__ import annotations

import json

import numpy as np

R_RANGE = (0.05, 0.3)
X_RANGE = (0.05, 0.3)


def feeder_document(rng: np.random.Generator, n_loads: int, n_subs: int, spine: int, name: str) -> str:
    """JSON text of a grid with its operational forest declared."""
    per_tree = n_loads // n_subs
    sizes = [per_tree] * n_subs
    sizes[0] += n_loads - per_tree * n_subs
    load_ids = [int(i) for i in n_subs + rng.permutation(n_loads)]

    edges = []  # (u, v, closed)
    members = []
    cursor = 0
    for k, size in enumerate(sizes):
        tree = load_ids[cursor:cursor + size]
        cursor += size
        placed = [k]  # the substation
        for j, nid in enumerate(tree):
            if k == 0 and j < spine:
                parent = placed[-1]  # extend the spine
            elif k == 0:
                parent = placed[1 + int(rng.integers(len(placed) - 1))]  # lateral off a load
            else:
                parent = placed[int(rng.integers(len(placed)))]
            edges.append((parent, nid, True))
            placed.append(nid)
        members.append(placed)

    used = {frozenset(e[:2]) for e in edges}

    def new_pair(a_pool, b_pool):
        while True:
            u = int(a_pool[int(rng.integers(len(a_pool)))])
            v = int(b_pool[int(rng.integers(len(b_pool)))])
            if u != v and frozenset((u, v)) not in used:
                used.add(frozenset((u, v)))
                return u, v

    all_ids = list(range(n_subs)) + load_ids
    for k in range(1, n_subs):
        edges.append(new_pair(members[k - 1], members[k]) + (False,))
    while len(edges) < n_loads + max(n_loads // 4, n_subs - 1):
        edges.append(new_pair(all_ids, all_ids) + (False,))

    order = rng.permutation(len(edges))
    doc = {
        "meta": {"name": name},
        "nodes": [{"id": i, "kind": "substation"} for i in range(n_subs)]
        + [{"id": i, "kind": "load"} for i in sorted(load_ids)],
        "edges": [{"from": edges[i][0], "to": edges[i][1],
                   "r": float(rng.uniform(*R_RANGE)), "x": float(rng.uniform(*X_RANGE)),
                   "closed": edges[i][2]} for i in order],
    }
    return json.dumps(doc)
