"""Bottom-up reconstruction of the operational spanning forest.

The observer holds voltage-deviation samples (or, in the infinite-sample
limit, exact moments), the true injection second moments, and the line
parameters of the whole designed grid.  Nodes are discovered in order of
decreasing diagonal voltage moment, which under the positivity assumption
runs from the leaves toward the roots; each newly popped node is tested as
the parent of every current leaf by comparing the empirical mean squared
deviation difference against its closed-form value over the leaf's
descendant set, and the edge is accepted when the relative mismatch is
below the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .grid import ForestConfig, GridGraph
from .moments import InjectionModel, MomentSet, edge_sq_diff
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
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"tau must lie in (0, 1), got {self.tau}")
        if self.variant not in VARIANTS:
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
    """Learned operational edges plus the full per-pair decision trace.

    ``learned_edges`` is always cycle-free: a leaf leaves the frontier as
    soon as its first edge is accepted, so no node acquires two parents.
    """

    learned_edges: frozenset[tuple[int, int]]
    parent_map: dict[int, int]
    trace: tuple[TraceRecord, ...]
    pop_order: tuple[int, ...]
    relative_error: float | None = None


class _DescendantSums:
    """Descendant-set bookkeeping with incrementally cached moment sums.

    Merging set A into set B adds the A-B cross blocks of each moment matrix
    exactly once, so the total merge work over a full reconstruction is
    O(N^2) for dense moment matrices and each tested pair costs O(1)."""

    def __init__(self, model: InjectionModel, substations: tuple[int, ...]):
        self._sp = model.sigma_p
        self._sq = model.sigma_q
        self._spq = model.sigma_pq
        diagonals = zip(self._sp.diagonal().tolist(), self._sq.diagonal().tolist(), self._spq.diagonal().tolist())
        self.members: dict[int, list[int]] = {nid: [i] for i, nid in enumerate(model.nodes)}
        self.sums: dict[int, tuple[float, float, float]] = dict(zip(model.nodes, diagonals))
        for sub in substations:  # substations carry no injection moments
            self.members[sub] = []
            self.sums[sub] = (0.0, 0.0, 0.0)

    def merge(self, src: int, dst: int):
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
        sigma = data.sigma_eps if perm is None else data.sigma_eps[np.ix_(perm, perm)]
        finite = np.isfinite(sigma)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DomainError(f"moment entry of nodes ({nodes[i]}, {nodes[j]}) is not finite")

        def lhs(i: int, j: int) -> float:
            return float(sigma[i, i] - 2.0 * sigma[i, j] + sigma[j, j])

        return dict(zip(nodes, sigma.diagonal().tolist())), lhs

    eps = data.eps if perm is None else data.eps[:, perm]
    # A non-finite cell makes its column's mean square non-finite.
    diag = {nid: float(np.mean(eps[:, i] ** 2)) for i, nid in enumerate(nodes)}
    for nid, value in diag.items():
        if not math.isfinite(value):
            raise DomainError(f"samples of node {nid} have a non-finite mean square ({value})")

    def lhs(i: int, j: int) -> float:
        d = eps[:, i] - eps[:, j]
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
    infinite-sample limit.  Candidate parents are the lines of the designed
    grid, whose parameters the closed form needs; a pair without a line is
    recorded in the trace and skipped.  Substations are never attached as
    children: they are roots of the base-constrained forest, with zero
    deviation, so the left side of a leaf and a substation is the leaf's own
    diagonal moment.
    """
    diag, pair_lhs = _pair_statistic(data, grid)
    diag.update(dict.fromkeys(grid.substation_ids, 0.0))
    desc = _DescendantSums(model.aligned_to(grid.load_ids), grid.substation_ids)
    idx = grid.load_index

    pop_order = sorted(diag, key=lambda nid: (-diag[nid], nid))
    leaves: list[int] = []
    parent_map: dict[int, int] = {}
    trace: list[TraceRecord] = []

    for b_star in pop_order:
        j = idx.get(b_star)  # None for a substation
        for a in list(leaves):
            edge_index = grid.edge_between(a, b_star)
            if edge_index is None:
                trace.append(TraceRecord(a, b_star, None, None, None, False, "no line in grid"))
                continue
            lhs = diag[a] if j is None else pair_lhs(idx[a], j)
            rhs = edge_sq_diff(grid.edges[edge_index], config.variant, *desc.sums[a])
            dev = _deviation(lhs, rhs)
            if dev < config.tau:
                parent_map[a] = b_star
                desc.merge(a, b_star)
                leaves.remove(a)
                trace.append(TraceRecord(a, b_star, lhs, rhs, dev, True))
            else:
                note = "rhs zero with nonzero lhs" if math.isinf(dev) else ""
                trace.append(TraceRecord(a, b_star, lhs, rhs, dev, False, note))
        if j is not None:
            leaves.append(b_star)

    learned = frozenset((a, b) if a <= b else (b, a) for a, b in parent_map.items())
    return ReconstructionResult(learned, parent_map, tuple(trace), tuple(pop_order),
                                None if truth is None else relative_error(learned, truth))


def relative_error(result: ReconstructionResult | frozenset, truth: ForestConfig) -> float:
    """Count of mislabeled lines (learned-but-open plus operational-but-
    missed) divided by the size of the operational edge set."""
    learned = result.learned_edges if isinstance(result, ReconstructionResult) else frozenset(result)
    true_edges = frozenset(truth.grid.edges[ei].pair for ei in truth.closed_edges)
    return len(learned.symmetric_difference(true_edges)) / len(true_edges)
