"""Injection statistics and second moments of voltage deviations.

Everything here works with NON-central second moments E[y y^T]; means are
part of the signal, and the positivity assumption that the learner depends
on is stated on these non-central matrices (it holds in particular whenever
every load node consumes strictly more than it produces, in both active and
reactive power).  Covariances are derived, informational quantities.

The analytic formulas express the voltage-deviation moments through the
inverse reduced Laplacians of the forest, whose entries are root-path sums;
they are evaluated from those path sums directly, never by dense inversion.
For a load node a with parent b the expected squared difference of their
deviations collapses to a double sum of injection moments over the
descendant set of a, which is the identity the reconstruction algorithm
tests edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AssumptionViolation, DomainError, ModelError
# path_sum_matrix is unused here but kept: perfbench/spans.py wraps it on this module by name.
from .grid import ForestConfig, LineEdge, _repeated, path_sum_matrix  # noqa: F401
from .powerflow import InjectionVector, VoltageSamples, effective_impedance, lcpf_response

__all__ = [
    "InjectionModel",
    "InjectionBatch",
    "MomentSet",
    "default_model",
    "sample_injections",
    "empirical_moments",
    "analytic_sigma_eps",
    "analytic_sigma_theta",
    "analytic_sigma_theta_eps",
    "analytic_moment_set",
    "edge_sq_diff",
    "expected_sq_diff",
    "assumption1_violations",
    "verify_moment_ordering",
    "model_to_dict",
    "model_from_dict",
]

_PSD_SLACK = 1e-10


def _components(adjacent: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix, each
    as ascending indices; a breadth-first closure per component, O(N^2)."""
    n = adjacent.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = np.array([start])
        while frontier.size:
            new = adjacent[frontier].any(axis=0) & ~members
            members |= new
            frontier = np.flatnonzero(new)
        seen |= members
        out.append(np.flatnonzero(members))
    return out


@dataclass(frozen=True)
class InjectionModel:
    """Means and non-central second moments of nodal power injections.

    ``nodes`` fixes the row/column meaning of all matrices; sigma_p, sigma_q
    are symmetric, sigma_pq is E[p q^T] (generally not symmetric), and the
    joint covariance of (p, q) must be positive semidefinite.
    """

    nodes: tuple[int, ...]
    mu_p: np.ndarray
    mu_q: np.ndarray
    sigma_p: np.ndarray
    sigma_q: np.ndarray
    sigma_pq: np.ndarray
    kind: str = "gaussian"

    def __post_init__(self):
        n = len(self.nodes)
        if (nid := _repeated(self.nodes)) is not None:
            raise ModelError(f"node id {nid} is listed twice")
        for name in ("mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.mu_p.shape != (n,) or self.mu_q.shape != (n,):
            raise ModelError(f"mean vectors must have shape ({n},)")
        for name in ("sigma_p", "sigma_q", "sigma_pq"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise ModelError(f"{name} must have shape ({n}, {n}), got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ModelError(f"{name} contains non-finite entries")
        if not (np.all(np.isfinite(self.mu_p)) and np.all(np.isfinite(self.mu_q))):
            raise ModelError("mean vectors contain non-finite entries")
        for name in ("sigma_p", "sigma_q"):
            m = getattr(self, name)
            if not (np.array_equal(m, m.T)
                    or np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max()))):
                raise ModelError(f"{name} must be symmetric")
        self._check_psd()

    def _check_psd(self):
        """Reject a joint covariance of (p, q) with an eigenvalue below
        -slack * scale, one connected component of the covariance pattern at
        a time.

        Nodes i and j share a component when any of omega_p, omega_q,
        omega_pq or its transpose is nonzero at (i, j).  In component-major
        order the joint covariance is block diagonal with one block per
        component, so the blocks together have its eigenvalues; a forest's
        trees are the components of the default model.
        """
        op, oq, opq = self.omega_p, self.omega_q, self.omega_pq
        scale = max(1.0, *(float(np.abs(m).max(initial=0.0)) for m in (op, oq, opq)))
        threshold = _PSD_SLACK * scale
        coupled = (op != 0) | (oq != 0) | (opq != 0)
        coupled |= coupled.T
        for comp in _components(coupled):
            ix = np.ix_(comp, comp)
            joint = np.block([[op[ix], opq[ix]], [opq[ix].T, oq[ix]]])
            # A Cholesky factorization of J + (threshold / 2) I that succeeds
            # shows that every eigenvalue of J is above -threshold / 2, up to
            # Cholesky's backward error of about n * u * scale (u the unit
            # roundoff), which is far below threshold / 2 and of the size of
            # eigvalsh's own error.  So it accepts exactly the blocks that
            # eigvalsh accepts with a margin; eigenvalues decide the rest.
            try:
                np.linalg.cholesky(joint + 0.5 * threshold * np.eye(len(joint)))
                continue
            except np.linalg.LinAlgError:
                pass
            if np.linalg.eigvalsh(joint).min() < -threshold:
                raise ModelError("joint covariance of (p, q) is not positive semidefinite")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def omega_p(self) -> np.ndarray:
        return self.sigma_p - np.outer(self.mu_p, self.mu_p)

    @property
    def omega_q(self) -> np.ndarray:
        return self.sigma_q - np.outer(self.mu_q, self.mu_q)

    @property
    def omega_pq(self) -> np.ndarray:
        return self.sigma_pq - np.outer(self.mu_p, self.mu_q)

    @property
    def joint_covariance(self) -> np.ndarray:
        top = np.hstack([self.omega_p, self.omega_pq])
        bot = np.hstack([self.omega_pq.T, self.omega_q])
        return np.vstack([top, bot])

    @classmethod
    def from_covariances(cls, nodes, mu_p, mu_q, omega_p, omega_q, omega_pq, kind="gaussian") -> "InjectionModel":
        mu_p = np.asarray(mu_p, dtype=float)
        mu_q = np.asarray(mu_q, dtype=float)
        return cls(
            nodes=tuple(nodes), mu_p=mu_p, mu_q=mu_q,
            sigma_p=np.asarray(omega_p, dtype=float) + np.outer(mu_p, mu_p),
            sigma_q=np.asarray(omega_q, dtype=float) + np.outer(mu_q, mu_q),
            sigma_pq=np.asarray(omega_pq, dtype=float) + np.outer(mu_p, mu_q),
            kind=kind,
        )

    def aligned_to(self, nodes: Iterable[int]) -> "InjectionModel":
        """Reindex the model to another node ordering (same node set)."""
        nodes = tuple(nodes)
        if nodes == self.nodes:
            return self
        if set(nodes) != set(self.nodes):
            raise DomainError("model nodes do not match the requested node set")
        pos = {nid: i for i, nid in enumerate(self.nodes)}
        perm = np.array([pos[nid] for nid in nodes], dtype=np.intp)
        return InjectionModel(
            nodes=nodes, mu_p=self.mu_p[perm], mu_q=self.mu_q[perm],
            sigma_p=self.sigma_p[np.ix_(perm, perm)], sigma_q=self.sigma_q[np.ix_(perm, perm)],
            sigma_pq=self.sigma_pq[np.ix_(perm, perm)], kind=self.kind,
        )


@dataclass(frozen=True)
class InjectionBatch:
    """m injection vectors stacked row-wise."""

    nodes: tuple[int, ...]
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, j: int) -> InjectionVector:
        return InjectionVector(p=self.p[j], q=self.q[j])


def _check_moment_shape(name: str, matrix, n: int):
    if np.shape(matrix) != (n, n):
        raise DomainError(f"{name} must have shape ({n}, {n}) for {n} nodes, got {np.shape(matrix)}")


class _Deferred:
    """Moment matrices that one call computes together, on first read."""

    def __init__(self, compute):
        self._compute = compute
        self._values = None

    def get(self, name: str) -> np.ndarray:
        if self._values is None:
            self._values = self._compute()
            self._compute = None  # release what the computation held
        return self._values[name]


class _ReadOnFirstAccess:
    """A ``MomentSet`` field that may be given as a ``_Deferred``: the matrix
    is computed, shape-checked and stored when the field is first read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        value = obj.__dict__[self.name]
        if isinstance(value, _Deferred):
            value = value.get(self.name)
            _check_moment_shape(self.name, value, len(obj.nodes))
            obj.__dict__[self.name] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class MomentSet:
    """Second moments of voltage deviations (and phases when available).

    ``source`` is "analytic" or "empirical"; ``m`` carries the sample count
    for empirical sets.  Substations carry identically zero deviations and
    are therefore not part of the matrices.  An analytic set computes its
    phase moments when one of them is first read.
    """

    nodes: tuple[int, ...]
    sigma_eps: np.ndarray
    sigma_theta: np.ndarray | None = _ReadOnFirstAccess()
    sigma_theta_eps: np.ndarray | None = _ReadOnFirstAccess()
    source: str
    m: int | None = None

    def __post_init__(self):
        n = len(self.nodes)
        if (nid := _repeated(self.nodes)) is not None:
            raise DomainError(f"node id {nid} is listed twice")
        _check_moment_shape("sigma_eps", self.sigma_eps, n)
        for name in ("sigma_theta", "sigma_theta_eps"):
            matrix = self.__dict__[name]
            if matrix is not None and not isinstance(matrix, _Deferred):
                _check_moment_shape(name, matrix, n)


def default_model(forest: ForestConfig, mu_p: float = -0.005, sigma_ratio: float = 0.2,
                  rho: float = 0.1, q_alpha: float = 0.3, q_noise_ratio: float = 0.2) -> InjectionModel:
    """Gaussian consumption model satisfying the positivity assumption.

    Every load consumes mu_p on average, with active-power covariance
    sigma^2 (I + rho * ones) within each tree (sigma = sigma_ratio * |mu_p|)
    and zero correlation across trees; reactive injections are q_alpha * p
    plus independent noise.  All constants are overridable defaults.
    """
    nodes = forest.grid.load_ids
    n = len(nodes)
    sig = sigma_ratio * abs(mu_p)
    tree = forest.load_tree_index
    omega_p = np.zeros((n, n))
    omega_p[tree[:, None] == tree[None, :]] = rho * sig * sig
    np.fill_diagonal(omega_p, sig * sig * (1.0 + rho))

    mu_q = q_alpha * mu_p
    sig_eta = q_noise_ratio * abs(mu_q)
    omega_q = q_alpha * q_alpha * omega_p + np.eye(n) * sig_eta * sig_eta
    omega_pq = q_alpha * omega_p
    return InjectionModel.from_covariances(
        nodes=nodes, mu_p=np.full(n, mu_p), mu_q=np.full(n, mu_q),
        omega_p=omega_p, omega_q=omega_q, omega_pq=omega_pq,
    )


def sample_injections(model: InjectionModel, m: int, seed) -> InjectionBatch:
    """Draw m joint Gaussian samples of (p, q); deterministic per seed."""
    if m < 1:
        raise DomainError(f"sample count must be at least 1, got {m}")
    if model.kind != "gaussian":
        raise ModelError(f"no sampler registered for distribution kind {model.kind!r}")
    rng = np.random.default_rng(seed)
    mean = np.concatenate([model.mu_p, model.mu_q])
    draws = rng.multivariate_normal(mean, model.joint_covariance, size=m, method="eigh")
    n = model.n
    return InjectionBatch(nodes=model.nodes, p=draws[:, :n], q=draws[:, n:])


def empirical_moments(samples: VoltageSamples) -> MomentSet:
    """Non-central sample moments (1/m) sum_j y_a^j y_b^j of a stacked
    batch, one matrix product per moment matrix."""
    if not isinstance(samples, VoltageSamples):
        raise DomainError(f"expected a VoltageSamples batch, got {type(samples).__name__}")
    m = len(samples)
    if m < 1:
        raise DomainError("empty sample set")
    eps, theta = samples.eps, samples.theta
    sigma_eps = eps.T @ eps / m
    sigma_theta = None if theta is None else theta.T @ theta / m
    sigma_theta_eps = None if theta is None else theta.T @ eps / m
    return MomentSet(nodes=samples.nodes, sigma_eps=sigma_eps, sigma_theta=sigma_theta,
                     sigma_theta_eps=sigma_theta_eps, source="empirical", m=m)


def _aligned(forest: ForestConfig, model: InjectionModel) -> InjectionModel:
    return model.aligned_to(forest.grid.load_ids)


# The linear model gives eps = A p + B q and theta = B p - A q, so every
# voltage moment is a signed sum of sandwiches X S Y with X, Y in {A, B} and
# S an injection moment.  One row per sandwich: (S, X, Y, output, sign,
# form), where form "" adds X S Y, "sym" adds X S Y and its transpose, and
# "T" adds the transpose only (A S^T A = (A S A)^T since A is symmetric).
# Rows are grouped by (S, X), so one product X S serves a whole group; each
# output takes its terms in the order of the formulas in the docstrings.
_TERMS = (
    ("sigma_p", "a", "a", "sigma_eps", 1, ""),
    ("sigma_p", "b", "b", "sigma_theta", 1, ""),
    ("sigma_p", "b", "a", "sigma_theta_eps", 1, ""),
    ("sigma_q", "b", "b", "sigma_eps", 1, ""),
    ("sigma_q", "a", "a", "sigma_theta", 1, ""),
    ("sigma_q", "a", "b", "sigma_theta_eps", -1, ""),
    ("sigma_pq", "b", "a", "sigma_theta", -1, "sym"),
    ("sigma_pq", "b", "b", "sigma_theta_eps", 1, ""),
    ("sigma_pq", "a", "b", "sigma_eps", 1, "sym"),
    ("sigma_pq", "a", "a", "sigma_theta_eps", -1, "T"),
)
_OUTPUTS = ("sigma_eps", "sigma_theta", "sigma_theta_eps")


def _add(out: np.ndarray, term: np.ndarray, sign: int):
    if sign > 0:
        out += term
    else:
        out -= term


def _analytic_moments(forest: ForestConfig, model: InjectionModel, variant: str,
                      outputs: tuple[str, ...] = _OUTPUTS) -> dict[str, np.ndarray]:
    """Exact voltage moments of the linear model, evaluated per tree.

    (A, B) come from ``lcpf_response``; when B is None (the "dc" variant)
    its sandwiches are zero and skipped.  A and B are block diagonal over the
    trees, so in tree-major order X S multiplies only the k-th row block of
    S by the k-th diagonal block of X, and (X S) Y likewise by column
    blocks: each product costs sum_k n_k^2 N instead of N^3.
    """
    a, b = lcpf_response(forest, variant)
    mod = _aligned(forest, model)
    tree = forest.load_tree_index
    n = len(tree)
    order = np.argsort(tree, kind="stable")  # tree-major, ascending id within a tree
    permuted = not np.array_equal(order, np.arange(n))
    sizes = np.bincount(tree)
    cuts = np.cumsum(sizes)
    spans = [slice(lo, hi) for lo, hi in zip(cuts - sizes, cuts) if hi > lo]
    blocks = {name: [m[np.ix_(order[sl], order[sl])] for sl in spans]
              for name, m in (("a", a), ("b", b)) if m is not None}

    result = {name: np.zeros((n, n)) for name in outputs}
    terms = [t for t in _TERMS if t[3] in outputs and t[1] in blocks and t[2] in blocks]
    for s_name in dict.fromkeys(t[0] for t in terms):
        s = getattr(mod, s_name)
        if permuted:
            s = s[np.ix_(order, order)]
        for x in dict.fromkeys(t[1] for t in terms if t[0] == s_name):
            xs = np.empty_like(s)
            for sl, blk in zip(spans, blocks[x]):
                np.matmul(blk, s[sl], out=xs[sl])
            for _, _, y, out_name, sign, form in (t for t in terms if t[:2] == (s_name, x)):
                out = result[out_name]
                for sl, blk in zip(spans, blocks[y]):
                    xsy = xs[:, sl] @ blk  # columns sl of X S Y
                    if form != "T":
                        _add(out[:, sl], xsy, sign)
                    if form:
                        _add(out[sl], xsy.T, sign)
            del xs
    if permuted:
        inverse = np.argsort(order)
        for name in outputs:
            result[name] = result[name][np.ix_(inverse, inverse)]
    return result


def analytic_sigma_eps(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact second moments of voltage deviations under the linear model.

    A Sp A + B Sq B + A Spq B + (A Spq B)^T with A, B the path-sum inverse
    Laplacians of the variant's effective impedances.
    """
    return _analytic_moments(forest, model, variant, ("sigma_eps",))["sigma_eps"]


def analytic_sigma_theta(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact second moments of phase deviations."""
    return _analytic_moments(forest, model, variant, ("sigma_theta",))["sigma_theta"]


def analytic_sigma_theta_eps(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact phase/voltage cross moments E[theta eps^T]; not symmetric."""
    return _analytic_moments(forest, model, variant, ("sigma_theta_eps",))["sigma_theta_eps"]


def analytic_moment_set(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> MomentSet:
    """Exact voltage moments of the linear model.  ``sigma_eps``, which the
    learner reads, is computed here; the phase moments are computed together
    when either is first read, with the values an eager call would give."""
    phases = _Deferred(lambda: _analytic_moments(forest, model, variant, _OUTPUTS[1:]))
    return MomentSet(nodes=forest.grid.load_ids, sigma_eps=analytic_sigma_eps(forest, model, variant),
                     sigma_theta=phases, sigma_theta_eps=phases, source="analytic")


def edge_sq_diff(edge: LineEdge, variant: str, sp: float, sq: float, spq: float) -> float:
    """E[(eps_child - eps_parent)^2] across ``edge`` given the sums sp, sq,
    spq of sigma_p, sigma_q, sigma_pq over the child's descendant set:
    r^2 sp + x^2 sq + 2 r x spq in the variant's effective impedance."""
    r, x = effective_impedance(edge, variant)
    return r * r * sp + x * x * sq + 2.0 * r * x * spq


def expected_sq_diff(forest: ForestConfig, model: InjectionModel, child: int, parent: int,
                     variant: str = "lc") -> float:
    """E[(eps_child - eps_parent)^2] by the direct double sum over the
    child's descendant set (the reference route, independent of the
    path-matrix evaluation of the full moment matrix)."""
    if forest.parent.get(child) != parent:
        raise DomainError(f"node {parent} is not the parent of node {child}")
    mod = _aligned(forest, model)
    members = forest.descendant_load_indices[child]
    block = np.ix_(members, members)
    sums = (float(m[block].sum()) for m in (mod.sigma_p, mod.sigma_q, mod.sigma_pq))
    return edge_sq_diff(forest.grid.edges[forest.parent_edge[child]], variant, *sums)


def assumption1_violations(forest: ForestConfig, model: InjectionModel) -> list[tuple[int, int, str]]:
    """Same-tree node pairs whose non-central moments are not strictly
    positive, as (node_a, node_b, matrix-name) triples; empty when the
    positivity assumption holds."""
    mod = _aligned(forest, model)
    tree = forest.load_tree_index
    pairs = np.triu(tree[:, None] == tree[None, :])
    bad = np.stack([pairs & (mod.sigma_p <= 0), pairs & (mod.sigma_q <= 0),
                    pairs & ((mod.sigma_pq <= 0) | (mod.sigma_pq.T <= 0))], axis=-1)
    names = ("sigma_p", "sigma_q", "sigma_pq")
    nodes = mod.nodes
    return [(nodes[i], nodes[j], names[k]) for i, j, k in zip(*np.nonzero(bad))]


def verify_moment_ordering(forest: ForestConfig, model: InjectionModel,
                           variant: str = "lc") -> list[tuple[int, int, float, float]]:
    """Check the descendant ordering of diagonal voltage moments.

    Under the positivity assumption every strict descendant must have a
    strictly larger diagonal moment than its ancestor (substations sit at
    zero).  Returns the violating (descendant, ancestor, value_desc,
    value_anc) tuples; raises AssumptionViolation when the model fails the
    precondition, which is a different failure from an ordering violation.
    """
    bad = assumption1_violations(forest, model)
    if bad:
        a, b, name = bad[0]
        raise AssumptionViolation(
            f"model violates the positivity assumption: {name}({a},{b}) <= 0 "
            f"for same-tree pair ({a},{b})", pairs=bad)
    sigma = analytic_sigma_eps(forest, model, variant)
    idx = forest.grid.load_index
    violations = []
    for nid in forest.grid.load_ids:
        own = sigma[idx[nid], idx[nid]]
        anc = forest.parent[nid]
        while True:
            anc_val = 0.0 if forest.grid.is_substation(anc) else sigma[idx[anc], idx[anc]]
            if not own > anc_val:
                violations.append((nid, anc, float(own), float(anc_val)))
            if forest.grid.is_substation(anc):
                break
            anc = forest.parent[anc]
    return violations


# -- serialization -----------------------------------------------------------


def model_to_dict(model: InjectionModel) -> dict:
    return {
        "kind": "explicit",
        "distribution": model.kind,
        "nodes": list(model.nodes),
        "mu_p": model.mu_p.tolist(),
        "mu_q": model.mu_q.tolist(),
        "sigma_p": model.sigma_p.tolist(),
        "sigma_q": model.sigma_q.tolist(),
        "sigma_pq": model.sigma_pq.tolist(),
    }


def model_from_dict(doc: dict, forest: ForestConfig | None = None) -> InjectionModel:
    """Build a model from its JSON form: either {"kind": "default", ...}
    with the parametric constants (requires a forest) or an explicit
    {"kind": "explicit", nodes, means, moment matrices} document."""
    kind = doc.get("kind", "default")
    if kind == "default":
        if forest is None:
            raise DomainError("a forest is required to derive the default model")
        params = {k: doc[k] for k in ("mu_p", "sigma_ratio", "rho", "q_alpha", "q_noise_ratio") if k in doc}
        return default_model(forest, **params)
    if kind == "explicit":
        return InjectionModel(
            nodes=tuple(doc["nodes"]),
            mu_p=np.asarray(doc["mu_p"], dtype=float),
            mu_q=np.asarray(doc["mu_q"], dtype=float),
            sigma_p=np.asarray(doc["sigma_p"], dtype=float),
            sigma_q=np.asarray(doc["sigma_q"], dtype=float),
            sigma_pq=np.asarray(doc["sigma_pq"], dtype=float),
            kind=doc.get("distribution", "gaussian"),
        )
    raise DomainError(f"unknown model kind {kind!r}")
