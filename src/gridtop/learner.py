"""Bottom-up reconstruction of the operational spanning forest.

The observer holds voltage-deviation samples (or, in the infinite-sample
limit, exact moments), the true injection second moments, and the line
parameters of the whole designed grid.  Nodes are discovered in order of
decreasing diagonal voltage moment, which under the positivity assumption
runs from the leaves toward the roots; each newly popped node is tested as
the parent of every current leaf it shares a grid line with, by comparing
the empirical mean squared deviation difference against its closed-form
value over the leaf's descendant set, and the edge is accepted when the
relative mismatch is below the tolerance.  A leaf without a line to the
popped node cannot be its child, so it is not tested; the full per-pair
trace, with those pairs as "no line in grid" records, is rebuilt from the
tested decisions when it is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .grid import ForestConfig, GridGraph, _is_number
from .moments import InjectionModel, MomentSet, _refuse_non_finite_moment, _sigma_sq_diff
from .powerflow import VARIANTS, VoltageSamples

__all__ = [
    "LearnerConfig",
    "TraceRecord",
    "ReconstructionResult",
    "reconstruct",
    "relative_error",
    "TRACE_FIELDS",
]


@dataclass(frozen=True)
class LearnerConfig:
    """Tolerance and variant switches for one reconstruction."""

    tau: float = 0.05
    variant: str = "lc"

    def __post_init__(self):
        if not (_is_number(self.tau) and 0.0 < self.tau < 1.0):
            raise DomainError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not (isinstance(self.variant, str) and self.variant in VARIANTS):
            raise DomainError(f"variant must be one of {list(VARIANTS)}, got {self.variant!r}")


class TraceRecord(NamedTuple):
    """One tested (leaf, popped node) pair; a record is its own CSV row."""

    leaf: int
    candidate: int
    lhs: float | None
    rhs: float | None
    deviation: float | None
    accepted: bool
    note: str = ""


TRACE_FIELDS = TraceRecord._fields


@dataclass(frozen=True)
class ReconstructionResult:
    """Learned operational edges plus the decisions behind them.

    ``decisions`` holds the tested (leaf, popped node) pairs, those joined
    by a grid line, in test order.  ``trace`` is the full per-pair trace:
    every current leaf against every popped node, the untested pairs as
    "no line in grid" records.  It is rebuilt from ``pop_order`` and the
    decisions on first read, so a caller that never reads it never pays for
    it.  ``learned_edges`` is always cycle-free: a leaf leaves the frontier
    as soon as its first edge is accepted, so no node acquires two parents.
    """

    learned_edges: frozenset[tuple[int, int]]
    parent_map: dict[int, int]
    decisions: tuple[TraceRecord, ...]
    pop_order: tuple[int, ...]
    tau: float
    grid: GridGraph = field(compare=False, repr=False)
    relative_error: float | None = None

    @cached_property
    def trace(self) -> tuple[TraceRecord, ...]:
        return _replay_trace(self)

    @cached_property
    def parentless_loads(self) -> tuple[int, ...]:
        """The loads with no learned parent line, in ascending id.  A
        base-constrained spanning forest leaves none, so a nonempty tuple
        says the learned forest is incomplete."""
        return tuple(nid for nid in self.grid.load_ids if nid not in self.parent_map)

    @cached_property
    def accept_margin(self) -> float | None:
        """``tau`` minus the largest accepted deviation; None when no pair
        was accepted."""
        accepted = [rec.deviation for rec in self.decisions if rec.accepted]
        return self.tau - max(accepted) if accepted else None

    @cached_property
    def reject_margin(self) -> float | None:
        """The smallest rejected deviation minus ``tau``; None when no
        tested pair was rejected."""
        rejected = [rec.deviation for rec in self.decisions if not rec.accepted]
        return min(rejected) - self.tau if rejected else None


def _replay_trace(result: ReconstructionResult) -> tuple[TraceRecord, ...]:
    """Every current leaf against every popped node, in pop order: the
    stored decisions, with a "no line in grid" record for each pair
    without a line."""
    grid = result.grid
    decisions = iter(result.decisions)
    leaves: list[int] = []
    trace: list[TraceRecord] = []
    for b_star in result.pop_order:
        kept = []
        for a in leaves:
            if grid.edge_between(a, b_star) is None:
                trace.append(TraceRecord(a, b_star, None, None, None, False, "no line in grid"))
                kept.append(a)
            else:
                rec = next(decisions)
                trace.append(rec)
                if not rec.accepted:
                    kept.append(a)
        leaves = kept
        if b_star in grid.load_index:
            leaves.append(b_star)
    return tuple(trace)


class _DescendantSums:
    """Descendant-set bookkeeping with incrementally cached moment sums.

    Merging set A into set B adds the A-B cross blocks of each moment matrix
    exactly once, so the total merge work over a full reconstruction is
    O(N^2) for dense moment matrices and each tested pair costs O(1).  Only
    loads are tracked: only a load becomes a leaf, so no rhs reads a
    substation's sums, and a merge into a substation only retires the
    source set.

    A set is kept as (group, members): its members in merge order, as
    indices into the block of the model's storage group that holds them, so
    a merge gathers from that block directly.  A set across groups, which
    only a false accept makes, has group None and model indices, and its
    merges read through ``InjectionModel.block``."""

    def __init__(self, model: InjectionModel):
        self._model = model
        diagonals = np.empty((3, len(model.nodes)))
        rows = np.concatenate(model.groups)
        for k in range(3):
            diagonals[k, rows] = np.concatenate([blocks[k].diagonal() for blocks in model.group_sigmas])
        group, local = model.group_of.tolist(), model.index_in_group
        # One-element views to start.
        self.members: dict[int, tuple[int | None, np.ndarray]] = {
            nid: (group[i], local[i:i + 1]) for i, nid in enumerate(model.nodes)}
        self.sums: dict[int, tuple[float, float, float]] = dict(zip(model.nodes, zip(*diagonals.tolist())))

    def merge(self, src: int, dst: int):
        ga, a = self.members.pop(src)
        sp_a, sq_a, spq_a = self.sums.pop(src)
        if dst not in self.members:  # a substation
            return
        gb, b = self.members[dst]
        if ga is not None and ga == gb:
            sp, sq, spq = self._model.group_sigmas[ga]
            # The np.ix_(a, b) block, same shape and order.
            ab = (a[:, None], b)
            ba = (b[:, None], a)
            parts = sp[ab].sum(), sq[ab].sum(), spq[ab].sum(), spq[ba].sum()
        else:
            model = self._model
            a, b = (rows if g is None else model.groups[g][rows] for g, rows in ((ga, a), (gb, b)))
            ga = None
            parts = (model.block(0, a, b).sum(), model.block(1, a, b).sum(), model.block(2, a, b).sum(),
                     model.block(2, b, a).sum())
        p_ab, q_ab, pq_ab, pq_ba = map(float, parts)
        sp_b, sq_b, spq_b = self.sums[dst]
        sp_b += sp_a + 2.0 * p_ab
        sq_b += sq_a + 2.0 * q_ab
        spq_b += spq_a + pq_ab + pq_ba
        self.members[dst] = (ga, np.concatenate([b, a]))
        self.sums[dst] = (sp_b, sq_b, spq_b)


def _pair_statistic(data: VoltageSamples | MomentSet, grid: GridGraph) -> tuple[dict[int, float], Callable]:
    """The diagonal moment of each load, and ``lhs(i, j)``: the left side
    E[(eps_i - eps_j)^2] for two indices into ``grid.load_ids``."""
    nodes = grid.load_ids
    if tuple(data.nodes) != nodes:
        if set(data.nodes) != set(nodes):
            raise DomainError("sample nodes do not match the grid's load nodes")
        pos = {nid: i for i, nid in enumerate(data.nodes)}
        perm = np.array([pos[nid] for nid in nodes], dtype=np.intp)
    else:
        perm = None

    if isinstance(data, MomentSet):
        drops = data.drops
        # An analytic set settles finiteness from its blocks and means, and
        # builds its sigma_eps only to name the first pair that is not.
        if drops is None or not drops.finite:
            with np.errstate(over="ignore"):  # a mean product that overflows is refused below
                sigma = data.sigma_eps if perm is None else data.sigma_eps[np.ix_(perm, perm)]
            _refuse_non_finite_moment(sigma, nodes)

        if drops is not None:  # exact: no difference of nearly equal moments
            sq_diff = drops.sq_diff
            order = range(len(nodes)) if perm is None else perm.tolist()
            diagonal = drops.diagonal if perm is None else drops.diagonal[perm]

            def lhs(i: int, j: int) -> float:
                return sq_diff(order[i], order[j])
        else:
            diagonal = sigma.diagonal()
            lhs = partial(_sigma_sq_diff, sigma)

        return dict(zip(nodes, diagonal.tolist())), lhs

    # One (N, m) copy with each node's samples in a contiguous row; a row's
    # mean has the bits of the per-column mean over the (m, N) samples.
    et = np.ascontiguousarray(data.eps.T if perm is None else data.eps.T[perm])
    # A non-finite cell, or one whose square overflows, makes its node's mean
    # square non-finite, which is refused below without a numpy warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = dict(zip(nodes, np.mean(et * et, axis=1).tolist()))
    for nid, value in diag.items():
        if not math.isfinite(value):
            raise DomainError(f"samples of node {nid} have a non-finite mean square ({value})")

    def lhs(i: int, j: int) -> float:
        d = et[i] - et[j]
        return float(np.mean(d * d))

    return diag, lhs


def _deviation(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(1.0 - lhs / rhs)


def reconstruct(data: VoltageSamples | MomentSet, model: InjectionModel, grid: GridGraph,
                config: LearnerConfig = LearnerConfig(), truth: ForestConfig | None = None) -> ReconstructionResult:
    """Run the bottom-up forest reconstruction.

    ``data`` is either raw voltage-deviation samples (the mean squared
    difference on the left side is then the raw sample average, not
    reassembled from moment matrix entries) or an exact MomentSet for the
    infinite-sample limit, which must have been computed for
    ``config.variant``.  Candidate parents are the lines of the designed
    grid, whose parameters the closed form needs: each popped node is tested
    against those of its grid neighbours that are current leaves, in pop
    order, and a leaf without a line to it is skipped untested (the trace
    records it on first read).  An accept changes only the popped node's
    descendant sums, so no test of one popped node depends on another.
    Substations are never attached as children: they are roots of the
    base-constrained forest, with zero deviation, so the left side of a leaf
    and a substation is the leaf's own diagonal moment.  A tested pair whose
    lhs or rhs is not finite is refused with a DomainError naming both nodes.
    """
    if isinstance(data, MomentSet) and data.drops is not None and data.drops.variant != config.variant:
        raise DomainError(f"the moments were computed for variant {data.drops.variant!r}, "
                          f"but the learner is configured for variant {config.variant!r}")
    diag, pair_lhs = _pair_statistic(data, grid)
    diag.update(dict.fromkeys(grid.substation_ids, 0.0))
    desc = _DescendantSums(model.aligned_to(grid.load_ids))
    idx = grid.load_index

    pop_order = sorted(diag, key=lambda nid: (-diag[nid], nid))
    rank = {nid: k for k, nid in enumerate(pop_order)}
    impedance = VARIANTS[config.variant]
    # Per node, its lines to nodes popped before it, as (rank, node, r, x) in the
    # variant's effective impedance: sorted, in pop order.
    earlier: dict[int, list[tuple[int, int, float, float]]] = {nid: [] for nid in pop_order}
    for edge in grid.edges:
        a, b = (edge.u, edge.v) if rank[edge.u] < rank[edge.v] else (edge.v, edge.u)
        earlier[b].append((rank[a], a, *impedance(edge.r, edge.x)))
    leaves: set[int] = set()
    parent_map: dict[int, int] = {}
    decisions: list[TraceRecord] = []

    # An overflowing pair statistic is refused below, so numpy is not to announce it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for b_star in pop_order:
            j = idx.get(b_star)  # None for a substation
            for _, a, r, x in sorted(earlier[b_star]):
                if a not in leaves:
                    continue
                lhs = diag[a] if j is None else pair_lhs(idx[a], j)
                sp, sq, spq = desc.sums[a]  # over a's descendant set
                rhs = r * r * sp + x * x * sq + 2.0 * r * x * spq
                dev = _deviation(lhs, rhs)
                if dev < config.tau:
                    parent_map[a] = b_star
                    desc.merge(a, b_star)
                    leaves.remove(a)
                    decisions.append(TraceRecord(a, b_star, lhs, rhs, dev, True))
                else:  # a non-finite lhs or rhs is never accepted
                    if not (math.isfinite(lhs) and math.isfinite(rhs)):
                        raise DomainError(f"the pair statistic of nodes ({a}, {b_star}) is not finite "
                                          f"(lhs {lhs}, rhs {rhs})")
                    note = "rhs zero with nonzero lhs" if rhs == 0.0 else ""
                    decisions.append(TraceRecord(a, b_star, lhs, rhs, dev, False, note))
            if j is not None:
                leaves.add(b_star)

    learned = frozenset((a, b) if a <= b else (b, a) for a, b in parent_map.items())
    return ReconstructionResult(learned, parent_map, tuple(decisions), tuple(pop_order), config.tau, grid,
                                None if truth is None else relative_error(learned, truth))


def relative_error(result: ReconstructionResult | frozenset, truth: ForestConfig) -> float:
    """Count of mislabeled lines (learned-but-open plus operational-but-
    missed) divided by the size of the operational edge set."""
    learned = result.learned_edges if isinstance(result, ReconstructionResult) else frozenset(result)
    true_edges = frozenset(truth.grid.edges[ei].pair for ei in truth.closed_edges)
    return len(learned.symmetric_difference(true_edges)) / len(true_edges)
