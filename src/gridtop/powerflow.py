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
* ``dc_resistive_solve`` - the resistance-dominated limit: the same sweeps
  with each line's effective impedance (1/g, 0), so eps = H_g^-1 p and
  theta = -H_g^-1 q.
* ``distflow_solve_many`` / ``distflow_solve`` - the exact nonlinear
  recursion with quadratic loss terms, iterated backward/forward to a fixed
  point (Baran & Wu 1989; Shirmohammadi et al. 1988).  It determines
  voltage magnitudes and line flows only; no phase-recovery rule exists for
  it, so ``theta`` is None on its output.

Every tree sweep runs on one layout, the level plan: working arrays hold
one row per load node, sorted by (depth, id), and one column per sample,
and a sweep visits one depth level at a time.  The solvers here use one
plan per forest, built on first use and kept in ``forest.memo``; the
analytic moments (``moments``) build one per block of trees, over that
block's loads, with a column per moment entry.  The Python work is per
level, not per node or per column; the arithmetic per node and sample is
that of the scalar recursion, in the same order, so results do not depend
on the batch they are solved in.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleStateError
from .grid import ForestConfig, LineEdge, _is_finite, _is_number, _repeated, path_sum_matrix

__all__ = [
    "VARIANTS",
    "effective_impedance",
    "InjectionVector",
    "VoltageState",
    "VoltageSamples",
    "DistFlowResult",
    "lcpf_solve",
    "dc_resistive_solve",
    "distflow_solve",
    "distflow_solve_many",
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
        p = _float_array(self.p, "p")
        q = _float_array(self.q, "q")
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


class _Deferred:
    """Arrays that one call computes together, on first read."""

    def __init__(self, compute):
        self._compute = compute
        self._values = None

    def get(self, name: str) -> np.ndarray:
        if self._values is None:
            self._values = self._compute()
            self._compute = None  # release what the computation held
        return self._values[name]


_NO_DEFAULT = object()


def _float_array(value, name: str, error=DomainError) -> np.ndarray:
    """``value`` as a float array, without a copy when it is one; ``error``
    naming the field when it cannot be held as floats.  Text is refused in
    any container, numeric strings included, and so are complex entries."""
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if not (kind in "USc" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat))):
            return np.asarray(array, dtype=float)
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be an array of numbers")


class _ReadOnFirstAccess:
    """A frozen-dataclass field that may be given as a ``_Deferred``: the
    array is computed, checked and coerced by the owner's
    ``_check_field(name, value)`` and stored when the field is first read."""

    def __init__(self, default=_NO_DEFAULT):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.default is _NO_DEFAULT:
                raise AttributeError(self.name)  # so the dataclass field has no default
            return self.default
        value = obj.__dict__[self.name]
        if isinstance(value, _Deferred):
            value = obj.__dict__[self.name] = obj._check_field(self.name, value.get(self.name))
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class VoltageSamples:
    """A batch of voltage states: row j of ``eps`` (and ``theta``) is sample j.
    ``theta`` may be computed when it is first read."""

    nodes: tuple[int, ...]
    eps: np.ndarray
    theta: np.ndarray | None = _ReadOnFirstAccess(default=None)

    def __post_init__(self):
        if (nid := _repeated(self.nodes)) is not None:
            raise DomainError(f"node id {nid} is listed twice")
        eps = _float_array(self.eps, "eps")
        if eps.ndim != 2 or eps.shape[1] != len(self.nodes):
            raise DomainError(f"eps must have shape (m, {len(self.nodes)}) for {len(self.nodes)} nodes, "
                              f"got {eps.shape}")
        object.__setattr__(self, "eps", eps)
        theta = self.__dict__["theta"]
        if theta is not None and not isinstance(theta, _Deferred):
            object.__setattr__(self, "theta", self._check_field("theta", theta))

    def _check_field(self, name: str, value) -> np.ndarray:
        value = _float_array(value, name)
        if value.shape != self.eps.shape:
            raise DomainError(f"{name} must have the shape of eps {self.eps.shape}, got {value.shape}")
        return value

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


@dataclass(frozen=True)
class _LevelPlan:
    """Row layout of every tree sweep over whole trees of one forest.

    A working array has one row per load node, sorted by (depth, id), one
    column per sample or per moment entry, and a last *outside* row, which
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
    its node's root path, in place."""
    for level, par in zip(plan.levels, plan.parents):
        rows[level] += rows[par]
    return rows


# Each variant of the linear model is the coupled model with its own
# effective line impedance: a map of a line's (r, x), floats or arrays, to
# the (r, x) with which it enters.  The resistive "dc" limit keeps only the
# line conductance g, as (1/g, 0), in the operation order of
# ``LineEdge.conductance``.
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


def effective_impedance(edge: LineEdge, variant: str) -> tuple[float, float]:
    """The (r, x) with which ``edge`` enters the linear model ``variant``."""
    return _impedance(variant)(edge.r, edge.x)


def _sweep(forest: ForestConfig, inj: InjectionVector, variant: str) -> VoltageState:
    """Solve the linear model by two tree sweeps, O(N) total."""
    p, q = _check_batch(forest, inj.p[None], inj.q[None])
    plan = _level_plan(forest)
    r, x = _impedance(variant)(plan.r, plan.x)
    sp = _subtree_sums(plan, _rows(plan, p))
    sq = _subtree_sums(plan, _rows(plan, q))
    eps = np.zeros_like(sp)    # the outside row is the substation's 0
    theta = np.zeros_like(sp)
    for level, par in zip(plan.levels, plan.parents):
        eps[level] = eps[par] + r[level] * sp[level] + x[level] * sq[level]
        theta[level] = theta[par] + x[level] * sp[level] - r[level] * sq[level]
    return VoltageState(eps=_canonical(plan, eps)[0], theta=_canonical(plan, theta)[0])


def lcpf_solve(forest: ForestConfig, inj: InjectionVector) -> VoltageState:
    """Solve the coupled linear model by two tree sweeps, O(N) total."""
    return _sweep(forest, inj, "lc")


def dc_resistive_solve(forest: ForestConfig, inj: InjectionVector) -> VoltageState:
    """Solve the resistance-dominated limit: eps = H_g^-1 p, theta = -H_g^-1 q."""
    return _sweep(forest, inj, "dc")


def lcpf_response(forest: ForestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense response matrices (A, B) of the linear model in canonical order:
    eps = A p + B q and theta = B p - A q, with A = H_{1/r}^-1 (root-path
    resistance sums) and B = H_{1/x}^-1 (reactance sums).

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
    """Vectorized linear solves for sample batches of shape (m, N).  The
    phases are computed when ``theta`` is first read."""
    p, q = _check_batch(forest, p, q)
    a, b = lcpf_response(forest)
    phases = _Deferred(lambda: {"theta": p @ b - q @ a})
    return VoltageSamples(nodes=forest.grid.load_ids, eps=p @ a + q @ b, theta=phases)


@dataclass(frozen=True)
class _DistFlowBatch:
    """Per-sample fixed points of the DistFlow recursion, canonical order."""

    eps: np.ndarray         # (m, N) voltage deviations v - 1
    fp: np.ndarray          # (m, N) active flow on each load's parent line
    fq: np.ndarray          # (m, N) reactive flow on that line
    iterations: np.ndarray  # (m,) sweeps until the sample stopped
    residual: np.ndarray    # (m,) max(voltage change, flow residual) at that sweep


def _distflow(forest: ForestConfig, p, q, v0: float, tol: float, max_iter: int) -> _DistFlowBatch:
    """Iterate the DistFlow recursion for every sample of a batch at once.

    Each sample keeps its own stopping rule: it leaves the batch after the
    sweep in which its own voltage change and flow residual both fall below
    ``tol``, with the values the one-sample iteration stops at.  A sample
    whose squared voltage falls to zero or below fails and leaves the batch
    after that sweep; until then a placeholder v0^2 stands in for the value,
    so no square root of a negative number is taken.  A sample whose flows
    or squared voltages are no longer finite after a sweep has diverged and
    fails at that sweep.  When samples fail, the error of the lowest-index
    one is raised.
    """
    p, q = _check_batch(forest, p, q)
    if not (_is_finite(v0) and v0 > 0):
        raise DomainError(f"root voltage must be positive and finite, got {v0}")
    if not (_is_number(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
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
    work[2] = v0 * v0
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
                new_vsq[bad] = v0 * v0
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


def distflow_solve_many(forest: ForestConfig, p: np.ndarray, q: np.ndarray, v0: float = 1.0,
                        tol: float = 1e-10, max_iter: int = 100) -> VoltageSamples:
    """Solve the nonlinear recursion for sample batches of shape (m, N).

    Internally flows and nodal powers use the consumption-positive (load)
    convention of the recursion; injections are negated on entry.  Starting
    from a flat profile (v = v0, lossless flows), each pass aggregates flows
    leaf-to-root with quadratic loss terms evaluated at the sending end,
    then updates squared voltages root-to-leaf; a sample stops when both its
    voltage change and its flow-balance residual fall below ``tol``, and
    fails with ``ConvergenceError`` at the sweep where its flows or voltages
    stop being finite.  Every sample gets exactly the values it gets when
    solved alone; when samples fail, the error of the lowest-index one is
    raised.
    """
    return VoltageSamples(nodes=forest.grid.load_ids, eps=_distflow(forest, p, q, v0, tol, max_iter).eps)


def distflow_solve(forest: ForestConfig, inj: InjectionVector, v0: float = 1.0,
                   tol: float = 1e-10, max_iter: int = 100) -> DistFlowResult:
    """Iterate the nonlinear recursion to a fixed point: the one-sample case
    of ``distflow_solve_many``, with its line flows, sweep count and final
    residual."""
    batch = _distflow(forest, inj.p[None], inj.q[None], v0, tol, max_iter)
    fp, fq = batch.fp[0], batch.fq[0]
    flows = {forest.parent_edge[nid]: (fp[i], fq[i]) for i, nid in enumerate(forest.grid.load_ids)}
    return DistFlowResult(state=VoltageState(eps=batch.eps[0], theta=None), flows=flows,
                          iterations=int(batch.iterations[0]), max_residual=batch.residual[0])
