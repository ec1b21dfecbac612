"""Power-flow solvers over an operational forest.

Two engines share one convention: injections are positive for generation
and negative for consumption, and the voltage deviation stored per load node
is eps = v - 1 in per-unit (negative below nominal), with substations pinned
at eps = 0.  Both give voltage magnitudes only: the learner reads no
phases, so no solver here forms one.

* ``lcpf_solve_many`` - the coupled linear model for a batch of samples,
  eps = H_{1/r}^-1 p + H_{1/x}^-1 q, by the dense response matrices of
  ``lcpf_response``.
* ``distflow_solve_many`` / ``distflow_solve`` - the exact nonlinear
  recursion with quadratic loss terms, iterated backward/forward to a fixed
  point (Baran & Wu 1989; Shirmohammadi et al. 1988).  It determines
  voltage magnitudes and line flows; ``distflow_solve``, the one-sample
  case, returns the flows too.

Every tree sweep runs on the level plan of ``grid``: working arrays hold
one row per load node, sorted by (depth, id), and one column per sample,
and a sweep visits one depth level at a time.  The solvers here use one
plan per forest, built on first use and kept in ``forest.memo``; the
analytic moments (``moments``) build one per block of trees, over that
block's loads, with a column per moment entry, and ``path_sum_matrix``
sweeps the whole forest's plan with a column per load.  The Python work is
per level, not per node or per column; the arithmetic per node and sample
is that of the scalar recursion, in the same order, so results do not
depend on the batch they are solved in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleStateError
from .grid import (ForestConfig, _canonical, _is_index, _is_number, _level_plan, _repeated, _rows,
                   _subtree_sums, path_sum_matrix)

__all__ = [
    "VARIANTS",
    "VoltageSamples",
    "DistFlowResult",
    "distflow_solve",
    "distflow_solve_many",
    "lcpf_response",
    "lcpf_solve_many",
]


def _float_array(value, name: str, error=DomainError) -> np.ndarray:
    """``value`` as a float array, without a copy when it is one; ``error``
    naming the field when it cannot be held as floats.  Text is refused in
    any container, numeric strings included, and so are complex entries."""
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if not (kind in "USc" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat))):
            return np.asarray(array, dtype=float)
    except OverflowError:
        raise error(f"{name} holds a number too large for a float") from None
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be an array of numbers")


@dataclass(frozen=True)
class VoltageSamples:
    """A batch of voltage deviations: row j of ``eps`` is sample j.  A batch
    has no phases."""

    nodes: tuple[int, ...]
    eps: np.ndarray

    def __post_init__(self):
        if (nid := _repeated(self.nodes)) is not None:
            raise DomainError(f"node id {nid} is listed twice")
        eps = _float_array(self.eps, "eps")
        if eps.ndim != 2 or eps.shape[1] != len(self.nodes):
            raise DomainError(f"eps must have shape (m, {len(self.nodes)}) for {len(self.nodes)} nodes, "
                              f"got {eps.shape}")
        object.__setattr__(self, "eps", eps)

    def __len__(self) -> int:
        return self.eps.shape[0]


@dataclass(frozen=True)
class DistFlowResult:
    """Converged nonlinear solution of one sample.  ``eps`` holds the
    voltage deviations per load node, canonical order.  ``flows`` maps each
    closed-edge index to its sending-end (active, reactive) flow in the
    consumption-positive convention: positive values flow from parent
    toward child, serving downstream load."""

    eps: np.ndarray
    flows: dict[int, tuple[float, float]]
    iterations: int
    max_residual: float


def _check_batch(forest: ForestConfig, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Sample batches p, q as finite float arrays of shape (m, N)."""
    p = _float_array(p, "p")
    q = _float_array(q, "q")
    n = forest.grid.n_loads
    if p.ndim != 2 or p.shape != q.shape:
        raise DomainError(f"expected (m, {n}) sample arrays, got {p.shape} and {q.shape}")
    if p.shape[1] != n:
        raise DomainError(f"injection dimension {p.shape[1]} does not match {n} load nodes")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise DomainError("injections must be finite")
    return p, q


# Each variant of the linear model is the coupled model with its own
# effective line impedance: a map of a line's (r, x), floats or arrays, to
# the (r, x) with which it enters.  The resistive "dc" limit keeps only the
# line admittance's real part g = r / (r^2 + x^2), as (1/g, 0): there eps = H_g^-1 p.
VARIANTS = {
    "lc": lambda r, x: (r, x),
    "dc": lambda r, x: (1.0 / (r / (r * r + x * x)), 0.0 * x),
}


def _impedance(variant: str):
    """The impedance map of ``variant``; DomainError for an unknown one."""
    impedance = VARIANTS.get(variant)
    if impedance is None:
        raise DomainError(f"unknown variant {variant!r}")
    return impedance


def lcpf_response(forest: ForestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense response matrices (A, B) of the linear model in canonical order:
    eps = A p + B q, with A = H_{1/r}^-1 (root-path resistance sums) and
    B = H_{1/x}^-1 (reactance sums).

    Built once per forest and kept, read-only, in the forest's memo, so
    repeated batch solves on one forest share them.
    """
    response = forest.memo.get("lcpf_response")
    if response is None:
        edges = forest.grid.edges
        a = path_sum_matrix(forest, {ei: 1.0 / edges[ei].r for ei in forest.closed_edges})
        b = path_sum_matrix(forest, {ei: 1.0 / edges[ei].x for ei in forest.closed_edges})
        a.flags.writeable = b.flags.writeable = False
        response = forest.memo["lcpf_response"] = (a, b)
    return response


def lcpf_solve_many(forest: ForestConfig, p: np.ndarray, q: np.ndarray) -> VoltageSamples:
    """Vectorized linear solves for sample batches of shape (m, N): the
    voltage deviations eps = pA + qB, in a new array."""
    p, q = _check_batch(forest, p, q)
    a, b = lcpf_response(forest)
    eps = p @ a
    eps += q @ b
    return VoltageSamples(nodes=forest.grid.load_ids, eps=eps)


@dataclass(frozen=True)
class _DistFlowBatch:
    """Per-sample fixed points of the DistFlow recursion, canonical order."""

    eps: np.ndarray         # (m, N) voltage deviations v - 1
    fp: np.ndarray          # (m, N) active flow on each load's parent line
    fq: np.ndarray          # (m, N) reactive flow on that line
    iterations: np.ndarray  # (m,) sweeps until the sample stopped
    residual: np.ndarray    # (m,) max(voltage change, flow residual) at that sweep


# Overflowing flows and voltages are the divergence each sweep tests for and
# refuses, so numpy is not to announce them first.
@np.errstate(over="ignore", invalid="ignore")
def _distflow(forest: ForestConfig, p, q, tol: float, max_iter: int) -> _DistFlowBatch:
    """Iterate the DistFlow recursion for every sample of a batch at once.

    Each sample keeps its own stopping rule: it leaves the batch after the
    sweep in which its own voltage change and flow residual both fall below
    ``tol``, with the values the one-sample iteration stops at.  A sample
    whose squared voltage falls to zero or below fails and leaves the batch
    after that sweep; until then the flat value 1 stands in for it, so no
    square root of a negative number is taken.  A sample whose flows
    or squared voltages are no longer finite after a sweep has diverged and
    fails at that sweep.  When samples fail, the error of the lowest-index
    one is raised.
    """
    p, q = _check_batch(forest, p, q)
    if not (_is_number(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not (_is_index(max_iter) and max_iter >= 1):
        raise DomainError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    plan = _level_plan(forest)
    rx = np.stack([plan.r, plan.x])
    n, m = plan.canon.size, p.shape[0]

    # Working arrays stacked on axis 0, one column per live sample: loads
    # (consumption positive), squared voltages (starting flat), each line's
    # loss factor (f_p^2 + f_q^2) / v_parent^2 as the latest voltage sweep
    # left it, the active and reactive flows on each node's parent line
    # (starting lossless) and the voltage magnitudes.
    work = np.empty((7, n + 1, m))
    work[0], work[1] = _rows(plan, -p), _rows(plan, -q)
    work[2] = 1.0
    work[4], work[5] = _subtree_sums(plan, work[0].copy()), _subtree_sums(plan, work[1].copy())
    work[3] = (work[4] * work[4] + work[5] * work[5]) / work[2]
    work[6] = np.sqrt(work[2])
    live = np.arange(m)
    last = np.zeros(m)  # each live sample's max(dv, residual) after the latest sweep
    stopped = np.empty((3, n + 1, m))  # flows and voltages where each sample stopped
    iterations = np.zeros(m, dtype=int)
    residual_at_stop = np.zeros(m)
    failures: dict[int, Exception] = {}
    for iteration in range(1, max_iter + 1):
        if not live.size:
            break
        load, vsq, loss, flows, v = work[0:2], work[2], work[3], work[4:6], work[6]

        # Leaf-to-root flows.  A line's loss factor uses the flows and the
        # parent voltage before this sweep, which is what the last voltage
        # sweep stored.
        previous = flows.copy()
        for level, kids in zip(reversed(plan.levels), reversed(plan.children)):
            recv = load[:, level].copy()
            for k in kids:
                recv += flows[:, k]
            flows[:, level] = recv + rx[:, level] * loss[level]
        residual = np.max(np.abs(flows - previous), axis=(0, 1), initial=0.0)

        # Root-to-leaf squared voltages.
        fp, fq = flows[0, :n], flows[1, :n]
        sq = fp * fp + fq * fq
        drop = 2.0 * (plan.r * fp + plan.x * fq)
        failed = np.zeros(live.size, dtype=bool)
        for level, par in zip(plan.levels, plan.parents):
            v_par = vsq[par]
            flow_sq = sq[level] / v_par
            new_vsq = v_par - drop[level] + plan.z2[level] * flow_sq
            bad = new_vsq <= 0.0
            if bad.any():
                lost = bad.any(axis=0)
                for j in np.flatnonzero(lost):
                    i = int(np.argmax(bad[:, j]))  # the sample's first node in sweep order
                    failures.setdefault(int(live[j]), InfeasibleStateError(
                        f"squared voltage at node {forest.loads_by_depth[level.start + i]} fell to "
                        f"{new_vsq[i, j]}; grid is infeasible"))
                failed |= lost
                new_vsq[bad] = 1.0
            vsq[level] = new_vsq
            loss[level] = flow_sq
        root = np.sqrt(vsq)
        dv = np.max(np.abs(root - v), axis=0, initial=0.0)
        v[...] = root
        diverged = ~(np.isfinite(flows[:, :n]).all(axis=(0, 1)) & np.isfinite(vsq[:n]).all(axis=0))
        for j in np.flatnonzero(diverged):
            failures.setdefault(int(live[j]), ConvergenceError(
                f"sweep {iteration} diverged: flows or voltages are no longer finite",
                residual=math.inf, iterations=iteration))
        failed |= diverged

        last = np.maximum(dv, residual)
        stop = (dv < tol) & (residual < tol) & ~failed
        if stop.any():
            done = live[stop]
            stopped[..., done] = work[4:, :, stop]
            iterations[done] = iteration
            residual_at_stop[done] = last[stop]
        keep = ~(stop | failed)
        if not keep.all():
            work, live, last = work[..., keep], live[keep], last[keep]

    for j, value in zip(live, last):
        failures[int(j)] = ConvergenceError(
            f"sweep did not converge within {max_iter} iterations (residual {value:.3e})",
            residual=value, iterations=max_iter,
        )
    if failures:
        raise failures[min(failures)]
    return _DistFlowBatch(eps=_canonical(plan, stopped[2]) - 1.0, fp=_canonical(plan, stopped[0]),
                          fq=_canonical(plan, stopped[1]), iterations=iterations, residual=residual_at_stop)


def distflow_solve_many(forest: ForestConfig, p: np.ndarray, q: np.ndarray,
                        tol: float = 1e-10, max_iter: int = 100) -> VoltageSamples:
    """Solve the nonlinear recursion for sample batches of shape (m, N).

    Internally flows and nodal powers use the consumption-positive (load)
    convention of the recursion; injections are negated on entry.  The
    substations hold v = 1 p.u.  Starting from a flat profile (v = 1,
    lossless flows), each pass aggregates flows leaf-to-root with quadratic
    loss terms evaluated at the sending end, then updates squared voltages root-to-leaf; a sample stops when both its
    voltage change and its flow-balance residual fall below ``tol``, and
    fails with ``ConvergenceError`` at the sweep where its flows or voltages
    stop being finite.  Every sample gets exactly the values it gets when
    solved alone; when samples fail, the error of the lowest-index one is
    raised.
    """
    return VoltageSamples(nodes=forest.grid.load_ids, eps=_distflow(forest, p, q, tol, max_iter).eps)


def distflow_solve(forest: ForestConfig, p: np.ndarray, q: np.ndarray,
                   tol: float = 1e-10, max_iter: int = 100) -> DistFlowResult:
    """Iterate the nonlinear recursion to a fixed point: the one-sample case
    of ``distflow_solve_many`` for 1-d ``p`` and ``q``, with its line flows,
    sweep count and final residual."""
    p, q = _float_array(p, "p"), _float_array(q, "q")
    if p.ndim != 1 or q.ndim != 1:
        raise DomainError(f"expected 1-d arrays of one sample, got {p.shape} and {q.shape}")
    batch = _distflow(forest, p[None], q[None], tol, max_iter)
    fp, fq = batch.fp[0], batch.fq[0]
    flows = {forest.parent_edge[nid]: (fp[i], fq[i]) for i, nid in enumerate(forest.grid.load_ids)}
    return DistFlowResult(eps=batch.eps[0], flows=flows, iterations=int(batch.iterations[0]),
                          max_residual=batch.residual[0])
