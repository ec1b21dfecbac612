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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .grid import ForestConfig, GridGraph
from .moments import InjectionModel, MomentSet
from .powerflow import VoltageSamples

__all__ = [
    "LearnerConfig",
    "TraceRecord",
    "ReconstructionResult",
    "reconstruct",
    "relative_error",
    "TRACE_FIELDS",
]

TRACE_FIELDS = ("leaf", "candidate", "lhs", "rhs", "deviation", "accepted", "note")


@dataclass(frozen=True)
class LearnerConfig:
    """Tolerance and variant switches for one reconstruction.

    ``literal_tolerance`` evaluates the acceptance statistic in its literal
    published form 1 - |LHS/RHS| (vacuously true whenever the ratio exceeds
    one) instead of the corrected relative deviation |1 - LHS/RHS|; it
    exists only for comparison.
    """

    tau: float = 0.05
    variant: str = "lc"
    candidate_edges: str = "grid"
    literal_tolerance: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"tau must lie in (0, 1), got {self.tau}")
        if self.variant not in ("lc", "dc"):
            raise DomainError(f"variant must be 'lc' or 'dc', got {self.variant!r}")
        if self.candidate_edges not in ("grid", "all-pairs"):
            raise DomainError(f"candidate_edges must be 'grid' or 'all-pairs', got {self.candidate_edges!r}")


@dataclass(frozen=True)
class TraceRecord:
    leaf: int
    candidate: int
    lhs: float | None
    rhs: float | None
    deviation: float | None
    accepted: bool
    note: str = ""

    def as_row(self) -> tuple:
        return (self.leaf, self.candidate, self.lhs, self.rhs, self.deviation, self.accepted, self.note)


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

    def __init__(self, model: InjectionModel, load_index: dict[int, int]):
        self._sp = model.sigma_p
        self._sq = model.sigma_q
        self._spq = model.sigma_pq
        self._load_index = load_index
        self.members: dict[int, list[int]] = {}
        self.sums: dict[int, tuple[float, float, float]] = {}

    def add_node(self, node: int):
        i = self._load_index.get(node)
        if i is None:  # substations carry no injection moments
            self.members[node] = []
            self.sums[node] = (0.0, 0.0, 0.0)
        else:
            self.members[node] = [i]
            self.sums[node] = (float(self._sp[i, i]), float(self._sq[i, i]), float(self._spq[i, i]))

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


def _deviation(lhs: float, rhs: float, literal: bool) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    if literal:
        return 1.0 - abs(lhs / rhs)
    return abs(1.0 - lhs / rhs)


def reconstruct(data: VoltageSamples | MomentSet, model: InjectionModel, grid: GridGraph,
                config: LearnerConfig = LearnerConfig(), truth: ForestConfig | None = None) -> ReconstructionResult:
    """Run the bottom-up forest reconstruction.

    ``data`` is either raw voltage-deviation samples (the mean squared
    difference on the left side is then the raw sample average, not
    reassembled from moment matrix entries) or an exact MomentSet for the
    infinite-sample limit.  Candidate parents default to lines present in
    the designed grid; "all-pairs" mode tests every pair but necessarily
    rejects pairs without line parameters.  Substations are never attached
    as children: they are roots of the base-constrained forest.
    """
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
        # A non-finite cell makes its column's mean square non-finite.
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

    def lhs_of(a: int, b: int) -> float:
        if eps is not None:
            col_a = eps[:, idx[a]] if a in idx else 0.0
            col_b = eps[:, idx[b]] if b in idx else 0.0
            d = col_a - col_b
            return float(np.mean(d * d)) if isinstance(d, np.ndarray) else 0.0
        saa = sigma[idx[a], idx[a]] if a in idx else 0.0
        sbb = sigma[idx[b], idx[b]] if b in idx else 0.0
        sab = sigma[idx[a], idx[b]] if (a in idx and b in idx) else 0.0
        return float(saa - 2.0 * sab + sbb)

    def rhs_of(leaf: int, edge_index: int) -> float:
        e = grid.edges[edge_index]
        sp, sq, spq = desc.sums[leaf]
        if config.variant == "dc":
            g = e.conductance
            return sp / (g * g)
        return e.r * e.r * sp + e.x * e.x * sq + 2.0 * e.r * e.x * spq

    pop_order = sorted(diag, key=lambda nid: (-diag[nid], nid))
    leaves: list[int] = []
    learned: set[tuple[int, int]] = set()
    parent_map: dict[int, int] = {}
    trace: list[TraceRecord] = []

    for b_star in pop_order:
        for a in list(leaves):
            edge_index = grid.edge_between(a, b_star)
            if edge_index is None:
                if config.candidate_edges == "grid":
                    trace.append(TraceRecord(a, b_star, None, None, None, False, "no line in grid"))
                else:
                    trace.append(TraceRecord(a, b_star, lhs_of(a, b_star), None, None, False,
                                             "no line parameters"))
                continue
            lhs = lhs_of(a, b_star)
            rhs = rhs_of(a, edge_index)
            dev = _deviation(lhs, rhs, config.literal_tolerance)
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


def relative_error(result: ReconstructionResult | frozenset, truth: ForestConfig) -> float:
    """Count of mislabeled lines (learned-but-open plus operational-but-
    missed) divided by the size of the operational edge set."""
    learned = result.learned_edges if isinstance(result, ReconstructionResult) else frozenset(result)
    true_edges = frozenset(truth.grid.edges[ei].pair for ei in truth.closed_edges)
    return len(learned.symmetric_difference(true_edges)) / len(true_edges)
