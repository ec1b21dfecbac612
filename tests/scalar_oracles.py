"""Scalar references for the tree sweeps: per node, per sample.

These are the recursions ``powerflow`` ran before its sweeps were batched
over samples and depth levels.  They are kept here, out of the package, as
the oracles the batched sweeps must match bit for bit: same visiting order,
children summed one at a time in ascending id order, the same stopping rule
and the same errors.
"""

from __future__ import annotations

import math

import numpy as np

from gridtop.errors import ConvergenceError, InfeasibleStateError
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
            loss = (fp[nid] ** 2 + fq[nid] ** 2) / vsq[par]
            new_p = recv + e.r * loss
            new_q = recv_q + e.x * loss
            residual = max(residual, abs(new_p - fp[nid]), abs(new_q - fq[nid]))
            fp[nid] = new_p
            fq[nid] = new_q

        dv = 0.0
        for nid in forest.loads_by_depth:
            par = forest.parent[nid]
            e = forest.grid.edges[forest.parent_edge[nid]]
            flow_sq = (fp[nid] ** 2 + fq[nid] ** 2) / vsq[par]
            new_vsq = vsq[par] - 2.0 * (e.r * fp[nid] + e.x * fq[nid]) + (e.r ** 2 + e.x ** 2) * flow_sq
            if new_vsq <= 0.0:
                raise InfeasibleStateError(f"squared voltage at node {nid} fell to {new_vsq}; grid is infeasible")
            dv = max(dv, abs(math.sqrt(new_vsq) - math.sqrt(vsq[nid])))
            vsq[nid] = new_vsq

        if dv < tol and residual < tol:
            eps = np.array([math.sqrt(vsq[nid]) - 1.0 for nid in forest.grid.load_ids])
            flows = {forest.parent_edge[nid]: (fp[nid], fq[nid]) for nid in forest.grid.load_ids}
            return DistFlowResult(state=VoltageState(eps=eps, theta=None), flows=flows,
                                  iterations=iteration, max_residual=max(dv, residual))

    raise ConvergenceError(
        f"sweep did not converge within {max_iter} iterations (residual {max(dv, residual):.3e})",
        residual=max(dv, residual), iterations=max_iter,
    )
