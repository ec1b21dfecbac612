"""Scalar and block references for the package's fast paths.

``scalar_sweep`` and ``scalar_distflow`` are the per-node, per-sample tree
recursions that ``powerflow`` ran before its sweeps were batched over
samples and depth levels; ``block_path_sums`` is an earlier
``grid.path_sum_matrix``, a block accumulation over descendant sets.  They
are kept here, out of the package, as the oracles the fast paths must match
bit for bit: same visiting order, children summed one at a time in
ascending id order, root paths summed root first, the same stopping rule
and the same errors.  ``scalar_sweep`` has no sweep left in the package to
match: the tests hold ``lcpf_solve_many``'s dense solve to it within
rounding, and read phases from it, since the package forms none.

The ancestry oracles (``descendants``, ``descendant_load_indices``,
``lca``, ``inverse_incidence_entry`` and ``laplacian_row_difference``) are
separate walks over the parent and child maps: a stack walk over children,
a post-order merge, a depth-equalising climb and a root-path membership
test.  They are checked against the descendant sets a forest records and
against the dense matrices of ``dense_oracles``, which holds the paper's
incidence and Laplacian matrices and its moment identities.

``reconstruct`` is the learner as it was before it chose its pair statistic
once per call: it decides per tested pair whether the data are samples or
moments and whether either end is a substation, and fills its descendant
sums node by node.  It keeps only the corrected deviation |1 - LHS/RHS|.
It visits every (current leaf, popped node) pair and builds the full trace
as it goes, so it returns its own ``OracleResult`` with an eager trace.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from gridtop.errors import ConvergenceError, DomainError, InfeasibleStateError
from gridtop.grid import _weight_of
from gridtop.learner import LearnerConfig, TraceRecord, relative_error
from gridtop.moments import MomentSet
from gridtop.powerflow import DistFlowResult

from dense_oracles import _edge_child, _edge_direction, closed_form_sq_diff, line_impedance, root_path_edges


def _subtree_sums(forest, values):
    idx = forest.grid.load_index
    sums = {}
    for nid in reversed(forest.loads_by_depth):
        acc = values[idx[nid]]
        for ch in forest.children[nid]:
            acc += sums[ch]
        sums[nid] = acc
    return sums


def scalar_sweep(forest, p, q, variant) -> tuple[np.ndarray, np.ndarray]:
    """The linear model ``variant`` for one sample by two node-by-node
    sweeps: the voltage deviations eps and the phases theta, canonical order."""
    idx = forest.grid.load_index
    sp = _subtree_sums(forest, p)
    sq = _subtree_sums(forest, q)
    eps = np.zeros(forest.grid.n_loads)
    theta = np.zeros(forest.grid.n_loads)
    for nid in forest.loads_by_depth:
        par = forest.parent[nid]
        r, x = line_impedance(forest.grid.edges[forest.parent_edge[nid]], variant)
        pe = 0.0 if par in forest.grid.substation_ids else eps[idx[par]]
        pt = 0.0 if par in forest.grid.substation_ids else theta[idx[par]]
        eps[idx[nid]] = pe + r * sp[nid] + x * sq[nid]
        theta[idx[nid]] = pt + x * sp[nid] - r * sq[nid]
    return eps, theta


def scalar_distflow(forest, p, q, tol=1e-10, max_iter=100) -> DistFlowResult:
    """Solve one sample node by node; raises like the package solver."""
    idx = forest.grid.load_index
    load_p = -np.asarray(p, dtype=float)
    load_q = -np.asarray(q, dtype=float)

    fp = _subtree_sums(forest, load_p)
    fq = _subtree_sums(forest, load_q)
    vsq = {n.id: 1.0 for n in forest.grid.nodes}

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
            return DistFlowResult(eps=eps, flows=flows, iterations=iteration, max_residual=max(dv, residual))

    raise ConvergenceError(
        f"sweep did not converge within {max_iter} iterations (residual {max(dv, residual):.3e})",
        residual=max(dv, residual), iterations=max_iter,
    )


def block_path_sums(forest, weights) -> np.ndarray:
    """The inverse reduced Laplacian in canonical order by block
    accumulation, O(sum of |desc|^2): each load, root first (in (depth, id)
    order), adds 1/weight of its parent edge to the block of node pairs that
    both descend through it."""
    n = forest.grid.n_loads
    out = np.zeros((n, n))
    desc = descendant_load_indices(forest)
    for nid in forest.loads_by_depth:
        members = desc[nid]
        out[np.ix_(members, members)] += 1.0 / _weight_of(weights, forest.parent_edge[nid])
    return out


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
    if edge_index not in root_path_edges(forest, node):
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


class OracleResult(NamedTuple):
    """The learner's outputs, with the full trace built eagerly."""

    learned_edges: frozenset
    parent_map: dict
    trace: tuple
    pop_order: tuple
    relative_error: float | None


def reconstruct(data, model, grid, config=LearnerConfig(), truth=None) -> OracleResult:
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

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing statistic is refused below
        for b_star in pop_order:
            for a in list(leaves):
                edge_index = grid.edge_between(a, b_star)
                if edge_index is None:
                    trace.append(TraceRecord(a, b_star, None, None, None, False, "no line in grid"))
                    continue
                lhs = lhs_of(a, b_star)
                rhs = closed_form_sq_diff(grid.edges[edge_index], config.variant, *desc.sums[a])
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
                    if not (math.isfinite(lhs) and math.isfinite(rhs)):
                        raise DomainError(f"the pair statistic of nodes ({a}, {b_star}) is not finite "
                                          f"(lhs {lhs}, rhs {rhs})")
                    note = "rhs zero with nonzero lhs" if rhs == 0.0 else ""
                    trace.append(TraceRecord(a, b_star, lhs, rhs, dev, False, note))
            if b_star not in grid.substation_ids:
                leaves.append(b_star)

    learned = frozenset(learned)
    return OracleResult(learned, parent_map, tuple(trace), tuple(pop_order),
                        None if truth is None else relative_error(learned, truth))


def subtree_indicator(forest) -> np.ndarray:
    """D with D[e, v] = 1 when load v lies in the subtree of load e, over the
    canonical load order: row e stands for e's parent line, and column v of
    D marks the lines on v's root path.  Built by a walk up from every load."""
    idx = forest.grid.load_index
    out = np.zeros((len(idx), len(idx)))
    for nid, j in idx.items():
        cur = nid
        while cur in idx:
            out[idx[cur], j] = 1.0
            cur = forest.parent[cur]
    return out


def dense_drop_moments(forest, model, variant="lc") -> np.ndarray:
    """E[delta delta^T] for the line drops delta_e = r_e P_e + x_e Q_e of the
    linear model, from the non-central injection moments and a dense D, in
    canonical order: eps = D^T delta, so E[(eps_a - eps_b)^2] is u^T Delta u
    with u = D[:, a] - D[:, b]."""
    mod = model.aligned_to(forest.grid.load_ids)
    rx = [line_impedance(forest.grid.edges[forest.parent_edge[nid]], variant) for nid in forest.grid.load_ids]
    r = np.array([v for v, _ in rx])
    x = np.array([v for _, v in rx])
    d = subtree_indicator(forest)
    rd, xd = r[:, None] * d, x[:, None] * d
    cross = rd @ mod.sigma_pq @ xd.T
    return rd @ mod.sigma_p @ rd.T + xd @ mod.sigma_q @ xd.T + cross + cross.T
