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

``reconstruct`` is the learner as it was before it chose its pair statistic
once per call: it decides per tested pair whether the data are samples or
moments and whether either end is a substation, and fills its descendant
sums node by node.  It keeps only the corrected deviation |1 - LHS/RHS|.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from gridtop.errors import ConvergenceError, DomainError, InfeasibleStateError
from gridtop.grid import _edge_child, _edge_direction, _weight_of
from gridtop.learner import LearnerConfig, ReconstructionResult, TraceRecord, relative_error
from gridtop.moments import MomentSet, edge_sq_diff
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


class _DescendantSums:
    """Descendant sets with their cached injection-moment sums, filled node
    by node; merging set A into set B adds the A-B cross blocks once."""

    def __init__(self, model, load_index):
        self._sp = model.sigma_p
        self._sq = model.sigma_q
        self._spq = model.sigma_pq
        self._load_index = load_index
        self.members = {}
        self.sums = {}

    def add_node(self, node):
        i = self._load_index.get(node)
        if i is None:  # substations carry no injection moments
            self.members[node] = []
            self.sums[node] = (0.0, 0.0, 0.0)
        else:
            self.members[node] = [i]
            self.sums[node] = (float(self._sp[i, i]), float(self._sq[i, i]), float(self._spq[i, i]))

    def merge(self, src, dst):
        a = self.members[src]
        b = self.members[dst]
        sp_a, sq_a, spq_a = self.sums[src]
        sp_b, sq_b, spq_b = self.sums[dst]
        if a and b:
            ix = np.ix_(a, b)
            xi = np.ix_(b, a)
            sp_b += sp_a + 2.0 * float(self._sp[ix].sum())
            sq_b += sq_a + 2.0 * float(self._sq[ix].sum())
            spq_b += spq_a + float(self._spq[ix].sum()) + float(self._spq[xi].sum())
        else:
            sp_b += sp_a
            sq_b += sq_a
            spq_b += spq_a
        b.extend(a)
        self.sums[dst] = (sp_b, sq_b, spq_b)
        del self.members[src], self.sums[src]


def reconstruct(data, model, grid, config=LearnerConfig(), truth=None) -> ReconstructionResult:
    """The bottom-up reconstruction with its pair statistic chosen per pair."""
    nodes = grid.load_ids
    if tuple(data.nodes) != nodes:
        if set(data.nodes) != set(nodes):
            raise DomainError("sample nodes do not match the grid's load nodes")
        pos = {nid: i for i, nid in enumerate(data.nodes)}
        perm = np.array([pos[nid] for nid in nodes], dtype=np.intp)
    else:
        perm = None

    if isinstance(data, MomentSet):
        sigma = data.sigma_eps if perm is None else data.sigma_eps[np.ix_(perm, perm)]
        eps = None
    else:
        eps = data.eps if perm is None else data.eps[:, perm]
        sigma = None

    idx = grid.load_index
    if eps is not None:
        diag = {nid: float(np.mean(eps[:, idx[nid]] ** 2)) for nid in nodes}
        for nid, value in diag.items():
            if not math.isfinite(value):
                raise DomainError(f"samples of node {nid} have a non-finite mean square ({value})")
    else:
        finite = np.isfinite(sigma)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DomainError(f"moment entry of nodes ({nodes[i]}, {nodes[j]}) is not finite")
        diag = {nid: float(sigma[idx[nid], idx[nid]]) for nid in nodes}
    for sub in grid.substation_ids:
        diag[sub] = 0.0

    model = model.aligned_to(nodes)
    desc = _DescendantSums(model, idx)
    for nid in diag:
        desc.add_node(nid)

    def lhs_of(a, b):
        if eps is not None:
            col_a = eps[:, idx[a]] if a in idx else 0.0
            col_b = eps[:, idx[b]] if b in idx else 0.0
            d = col_a - col_b
            return float(np.mean(d * d)) if isinstance(d, np.ndarray) else 0.0
        saa = sigma[idx[a], idx[a]] if a in idx else 0.0
        sbb = sigma[idx[b], idx[b]] if b in idx else 0.0
        sab = sigma[idx[a], idx[b]] if (a in idx and b in idx) else 0.0
        return float(saa - 2.0 * sab + sbb)

    pop_order = sorted(diag, key=lambda nid: (-diag[nid], nid))
    leaves = []
    learned = set()
    parent_map = {}
    trace = []

    for b_star in pop_order:
        for a in list(leaves):
            edge_index = grid.edge_between(a, b_star)
            if edge_index is None:
                trace.append(TraceRecord(a, b_star, None, None, None, False, "no line in grid"))
                continue
            lhs = lhs_of(a, b_star)
            rhs = edge_sq_diff(grid.edges[edge_index], config.variant, *desc.sums[a])
            if rhs == 0.0:
                dev = 0.0 if lhs == 0.0 else math.inf
            else:
                dev = abs(1.0 - lhs / rhs)
            if dev < config.tau:
                pair = (a, b_star) if a <= b_star else (b_star, a)
                learned.add(pair)
                parent_map[a] = b_star
                desc.merge(a, b_star)
                leaves.remove(a)
                trace.append(TraceRecord(a, b_star, lhs, rhs, dev, True))
            else:
                note = "rhs zero with nonzero lhs" if math.isinf(dev) else ""
                trace.append(TraceRecord(a, b_star, lhs, rhs, dev, False, note))
        if not grid.is_substation(b_star):
            leaves.append(b_star)

    result = ReconstructionResult(
        learned_edges=frozenset(learned),
        parent_map=parent_map,
        trace=tuple(trace),
        pop_order=tuple(pop_order),
    )
    if truth is not None:
        result = replace(result, relative_error=relative_error(result, truth))
    return result
