"""Power-flow solvers over an operational forest.

Three engines share one convention: injections are positive for generation
and negative for consumption, and the voltage deviation stored per load node
is eps = v - 1 in per-unit (negative below nominal), with substations pinned
at eps = theta = 0.

* ``lcpf_solve`` - the coupled linear model, solved in O(N) per tree by a
  leaf-to-root flow aggregation followed by a root-to-leaf accumulation of
  per-edge drops (the sweeps are exactly the lossless DistFlow recursion,
  which on trees coincides with the matrix form eps = H_{1/r}^-1 p +
  H_{1/x}^-1 q, theta = H_{1/x}^-1 p - H_{1/r}^-1 q).
* ``dc_resistive_solve`` - the resistance-dominated limit, same sweeps with
  conductance weights: eps = H_g^-1 p, theta = -H_g^-1 q.
* ``distflow_solve`` - the exact nonlinear recursion with quadratic loss
  terms, iterated backward/forward to a fixed point.  It determines voltage
  magnitudes and line flows only; no phase-recovery rule exists for it, so
  ``theta`` is None on its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleStateError
from .grid import ForestConfig, path_sum_matrix

__all__ = [
    "InjectionVector",
    "VoltageState",
    "VoltageSamples",
    "DistFlowResult",
    "lcpf_solve",
    "dc_resistive_solve",
    "distflow_solve",
    "lcpf_response",
    "lcpf_solve_many",
]


@dataclass(frozen=True)
class InjectionVector:
    """Active/reactive injections per load node, canonical ascending-id
    order, per-unit; consumption is negative."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.ndim != 1 or p.shape != q.shape:
            raise DomainError(f"p and q must be 1-d arrays of equal length, got {p.shape} and {q.shape}")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise DomainError("injections must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class VoltageState:
    """Voltage deviations eps = v - 1 (and phases, when the engine produces
    them) per load node in canonical order; substation values are 0 by
    construction and not stored."""

    eps: np.ndarray
    theta: np.ndarray | None


@dataclass(frozen=True)
class VoltageSamples:
    """A batch of voltage states: row j of ``eps`` (and ``theta``) is sample j."""

    nodes: tuple[int, ...]
    eps: np.ndarray
    theta: np.ndarray | None = None

    def __len__(self) -> int:
        return self.eps.shape[0]

    def __getitem__(self, j: int) -> VoltageState:
        return VoltageState(eps=self.eps[j], theta=None if self.theta is None else self.theta[j])


@dataclass(frozen=True)
class DistFlowResult:
    """Converged nonlinear solution.  ``flows`` maps each closed-edge index
    to its sending-end (active, reactive) flow in the consumption-positive
    convention: positive values flow from parent toward child, serving
    downstream load."""

    state: VoltageState
    flows: dict[int, tuple[float, float]]
    iterations: int
    max_residual: float


def _check_dim(forest: ForestConfig, inj: InjectionVector):
    n = forest.grid.n_loads
    if inj.p.shape[0] != n:
        raise DomainError(f"injection dimension {inj.p.shape[0]} does not match {n} load nodes")


def _subtree_sums(forest: ForestConfig, values: np.ndarray) -> dict[int, float]:
    """Sum of ``values`` (canonical order) over every load node's subtree."""
    idx = forest.grid.load_index
    sums: dict[int, float] = {}
    for nid in reversed(forest.loads_by_depth):
        acc = values[idx[nid]]
        for ch in forest.children[nid]:
            acc += sums[ch]
        sums[nid] = acc
    return sums


def lcpf_solve(forest: ForestConfig, inj: InjectionVector) -> VoltageState:
    """Solve the coupled linear model by two tree sweeps, O(N) total."""
    _check_dim(forest, inj)
    idx = forest.grid.load_index
    sp = _subtree_sums(forest, inj.p)
    sq = _subtree_sums(forest, inj.q)
    eps = np.zeros(forest.grid.n_loads)
    theta = np.zeros(forest.grid.n_loads)
    for nid in forest.loads_by_depth:
        par = forest.parent[nid]
        e = forest.grid.edges[forest.parent_edge[nid]]
        pe = 0.0 if forest.grid.is_substation(par) else eps[idx[par]]
        pt = 0.0 if forest.grid.is_substation(par) else theta[idx[par]]
        eps[idx[nid]] = pe + e.r * sp[nid] + e.x * sq[nid]
        theta[idx[nid]] = pt + e.x * sp[nid] - e.r * sq[nid]
    return VoltageState(eps=eps, theta=theta)


def dc_resistive_solve(forest: ForestConfig, inj: InjectionVector) -> VoltageState:
    """Solve the resistance-dominated limit: eps = H_g^-1 p, theta = -H_g^-1 q."""
    _check_dim(forest, inj)
    idx = forest.grid.load_index
    sp = _subtree_sums(forest, inj.p)
    sq = _subtree_sums(forest, inj.q)
    eps = np.zeros(forest.grid.n_loads)
    theta = np.zeros(forest.grid.n_loads)
    for nid in forest.loads_by_depth:
        par = forest.parent[nid]
        g = forest.grid.edges[forest.parent_edge[nid]].conductance
        pe = 0.0 if forest.grid.is_substation(par) else eps[idx[par]]
        pt = 0.0 if forest.grid.is_substation(par) else theta[idx[par]]
        eps[idx[nid]] = pe + sp[nid] / g
        theta[idx[nid]] = pt - sq[nid] / g
    return VoltageState(eps=eps, theta=theta)


def lcpf_response(forest: ForestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense response matrices (A, B) of the linear model in canonical order:
    eps = A p + B q and theta = B p - A q, with A = H_{1/r}^-1 (root-path
    resistance sums) and B = H_{1/x}^-1 (reactance sums).

    Built once per forest and kept, read-only, in the forest's memo, so
    repeated solves and moment evaluations on one forest share them.
    """
    response = forest.memo.get("lcpf_response")
    if response is None:
        edges = forest.grid.edges
        a = path_sum_matrix(forest, {ei: 1.0 / edges[ei].r for ei in forest.closed_edges})
        b = path_sum_matrix(forest, {ei: 1.0 / edges[ei].x for ei in forest.closed_edges})
        a.flags.writeable = False
        b.flags.writeable = False
        response = forest.memo["lcpf_response"] = (a, b)
    return response


def lcpf_solve_many(forest: ForestConfig, p: np.ndarray, q: np.ndarray) -> VoltageSamples:
    """Vectorized linear solves for sample batches of shape (m, N)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 2 or p.shape != q.shape or p.shape[1] != forest.grid.n_loads:
        raise DomainError(f"expected (m, {forest.grid.n_loads}) sample arrays, got {p.shape} and {q.shape}")
    a, b = lcpf_response(forest)
    return VoltageSamples(nodes=forest.grid.load_ids, eps=p @ a + q @ b, theta=p @ b - q @ a)


def distflow_solve(forest: ForestConfig, inj: InjectionVector, v0: float = 1.0,
                   tol: float = 1e-10, max_iter: int = 100) -> DistFlowResult:
    """Iterate the nonlinear recursion to a fixed point.

    Internally flows and nodal powers use the consumption-positive (load)
    convention of the recursion; injections are negated on entry.  Starting
    from a flat profile (v = v0, lossless flows), each pass aggregates flows
    leaf-to-root with quadratic loss terms evaluated at the sending end,
    then updates squared voltages root-to-leaf; iteration stops when both
    the voltage change and the flow-balance residual fall below ``tol``.
    """
    _check_dim(forest, inj)
    if not v0 > 0:
        raise DomainError(f"root voltage must be positive, got {v0}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    idx = forest.grid.load_index
    load_p = -inj.p
    load_q = -inj.q

    fp = {nid: s for nid, s in _subtree_sums(forest, load_p).items()}
    fq = {nid: s for nid, s in _subtree_sums(forest, load_q).items()}
    vsq: dict[int, float] = {n.id: v0 * v0 for n in forest.grid.nodes}

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
