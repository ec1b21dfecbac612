"""Scalar and block references for the package's fast paths.

``scalar_sweep`` and ``scalar_distflow`` are the per-node, per-sample tree
recursions that ``powerflow`` ran before its sweeps were batched over
samples and depth levels; ``block_path_sums`` is the block accumulation
that ``grid.path_sum_matrix`` ran before it filled each node pair once by
its lowest common ancestor.  They are kept here, out of the package, as the
oracles the fast paths must match bit for bit: same visiting order,
children summed one at a time in ascending id order, the same stopping rule
and the same errors.

The ancestry oracles (``preorder``, ``descendants``,
``descendant_load_indices``, ``lca``, ``inverse_incidence_entry`` and
``laplacian_row_difference``) are the separate walks ``grid`` made before
every ancestry question read the preorder runs recorded when a forest is
built: a preorder rebuilt per call, a stack walk over children, a post-order
merge, a depth-equalising climb and a root-path membership test.
"""

from __future__ import annotations

import math

import numpy as np

from gridtop.errors import ConvergenceError, InfeasibleStateError
from gridtop.grid import _edge_child, _edge_direction, _weight_of
from gridtop.powerflow import DistFlowResult, VoltageState, effective_impedance


def _subtree_sums(forest, values):
    idx = forest.grid.load_index
    sums = {}
    for nid in reversed(forest.loads_by_depth):
        acc = values[idx[nid]]
        for ch in forest.children[nid]:
            acc += sums[ch]
        sums[nid] = acc
    return sums


def scalar_sweep(forest, inj, variant) -> VoltageState:
    """The linear model ``variant`` by two node-by-node sweeps."""
    idx = forest.grid.load_index
    sp = _subtree_sums(forest, inj.p)
    sq = _subtree_sums(forest, inj.q)
    eps = np.zeros(forest.grid.n_loads)
    theta = np.zeros(forest.grid.n_loads)
    for nid in forest.loads_by_depth:
        par = forest.parent[nid]
        r, x = effective_impedance(forest.grid.edges[forest.parent_edge[nid]], variant)
        pe = 0.0 if forest.grid.is_substation(par) else eps[idx[par]]
        pt = 0.0 if forest.grid.is_substation(par) else theta[idx[par]]
        eps[idx[nid]] = pe + r * sp[nid] + x * sq[nid]
        theta[idx[nid]] = pt + x * sp[nid] - r * sq[nid]
    return VoltageState(eps=eps, theta=theta)


def scalar_distflow(forest, inj, v0=1.0, tol=1e-10, max_iter=100) -> DistFlowResult:
    """Solve one sample node by node; raises like the package solver."""
    idx = forest.grid.load_index
    load_p = -inj.p
    load_q = -inj.q

    fp = _subtree_sums(forest, load_p)
    fq = _subtree_sums(forest, load_q)
    vsq = {n.id: v0 * v0 for n in forest.grid.nodes}

    order_up = tuple(reversed(forest.loads_by_depth))  # leaves first
    for iteration in range(1, max_iter + 1):
        residual = 0.0
        for nid in order_up:
            par = forest.parent[nid]
            e = forest.grid.edges[forest.parent_edge[nid]]
            recv = load_p[idx[nid]]
            recv_q = load_q[idx[nid]]
            for ch in forest.children[nid]:
                recv += fp[ch]
                recv_q += fq[ch]
            loss = (fp[nid] * fp[nid] + fq[nid] * fq[nid]) / vsq[par]
            new_p = recv + e.r * loss
            new_q = recv_q + e.x * loss
            residual = max(residual, abs(new_p - fp[nid]), abs(new_q - fq[nid]))
            fp[nid] = new_p
            fq[nid] = new_q

        dv = 0.0
        for nid in forest.loads_by_depth:
            par = forest.parent[nid]
            e = forest.grid.edges[forest.parent_edge[nid]]
            flow_sq = (fp[nid] * fp[nid] + fq[nid] * fq[nid]) / vsq[par]
            new_vsq = vsq[par] - 2.0 * (e.r * fp[nid] + e.x * fq[nid]) + (e.r ** 2 + e.x ** 2) * flow_sq
            if new_vsq <= 0.0:
                raise InfeasibleStateError(f"squared voltage at node {nid} fell to {new_vsq}; grid is infeasible")
            dv = max(dv, abs(math.sqrt(new_vsq) - math.sqrt(vsq[nid])))
            vsq[nid] = new_vsq

        if not all(map(math.isfinite, (*fp.values(), *fq.values(), *vsq.values()))):
            raise ConvergenceError(f"sweep {iteration} diverged: flows or voltages are no longer finite",
                                   residual=math.inf, iterations=iteration)
        if dv < tol and residual < tol:
            eps = np.array([math.sqrt(vsq[nid]) - 1.0 for nid in forest.grid.load_ids])
            flows = {forest.parent_edge[nid]: (fp[nid], fq[nid]) for nid in forest.grid.load_ids}
            return DistFlowResult(state=VoltageState(eps=eps, theta=None), flows=flows,
                                  iterations=iteration, max_residual=max(dv, residual))

    raise ConvergenceError(
        f"sweep did not converge within {max_iter} iterations (residual {max(dv, residual):.3e})",
        residual=max(dv, residual), iterations=max_iter,
    )


def block_path_sums(forest, weights) -> np.ndarray:
    """The inverse reduced Laplacian in canonical order by block
    accumulation, O(sum of |desc|^2): each load, in ascending id order, adds
    1/weight of its parent edge to the block of node pairs that both descend
    through it."""
    n = forest.grid.n_loads
    out = np.zeros((n, n))
    desc = descendant_load_indices(forest)
    for nid in forest.grid.load_ids:
        members = desc[nid]
        out[np.ix_(members, members)] += 1.0 / _weight_of(weights, forest.parent_edge[nid])
    return out


def preorder(forest):
    """Depth-first preorder of the loads (trees in index order, children by
    ascending id): each load's position and subtree size."""
    position = {}
    for root in forest.grid.substation_ids:
        stack = list(reversed(forest.children[root]))
        while stack:
            nid = stack.pop()
            position[nid] = len(position)
            stack.extend(reversed(forest.children[nid]))
    size = {}
    for nid in reversed(position):
        size[nid] = 1 + sum(size[ch] for ch in forest.children[nid])
    return position, size


def descendants(forest, node):
    """The node and everything below it, by a stack walk over children."""
    out = [node]
    stack = [node]
    while stack:
        for ch in forest.children[stack.pop()]:
            out.append(ch)
            stack.append(ch)
    return frozenset(out)


def descendant_load_indices(forest):
    """Canonical indices of every load's descendant set, merged leaves first."""
    idx = forest.grid.load_index
    post = {}
    for nid in reversed(forest.loads_by_depth):
        members = [idx[nid]]
        for ch in forest.children[nid]:
            members.extend(post[ch].tolist())
        post[nid] = np.array(sorted(members), dtype=np.intp)
    return post


def lca(forest, a, b):
    """Lowest common ancestor by climbing to equal depth, then in step."""
    if forest.tree_of[a] != forest.tree_of[b]:
        return None
    da, db = forest.depth[a], forest.depth[b]
    while da > db:
        a = forest.parent[a]
        da -= 1
    while db > da:
        b = forest.parent[b]
        db -= 1
    while a != b:
        a = forest.parent[a]
        b = forest.parent[b]
    return a


def inverse_incidence_entry(forest, node, edge_index, orientation=None):
    """The inverse incidence entry by a search of the node's root path."""
    child = _edge_child(forest, edge_index)
    if forest.tree_of[node] != forest.tree_of[child]:
        return 0
    if edge_index not in forest.root_path_edges(node):
        return 0
    tail, _ = _edge_direction(forest, edge_index, orientation)
    return 1 if tail == child else -1


def laplacian_row_difference(forest, weights, child, node):
    """1/w of the child's parent line when node descends from child, else 0."""
    if forest.tree_of[node] != forest.tree_of[child]:
        return 0.0
    if node in descendants(forest, child):
        return 1.0 / _weight_of(weights, forest.parent_edge[child])
    return 0.0
