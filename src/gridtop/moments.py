"""Injection statistics and second moments of voltage deviations.

Everything here works with NON-central second moments E[y y^T]; means are
part of the signal, and the positivity assumption that the learner depends
on is stated on these non-central matrices (it holds in particular whenever
every load node consumes strictly more than it produces, in both active and
reactive power).  Covariances are derived, informational quantities.

The analytic moments are computed in the forest's edge coordinates.  Index
each line by its child load: the drop across line e is delta_e = r_e P_e +
x_e Q_e, with P_e, Q_e the injections summed over e's subtree, and a
deviation is the sum of the drops on its root path.  So every voltage moment
is two subtree sweeps of an injection covariance, a weighting by the line
impedances and two root-path sweeps, one block of trees at a time (the trees
the model's covariance couples), plus the product of the means; no inverse
Laplacian or dense response matrix is formed.  For a load a with parent b,
E[(eps_a - eps_b)^2] is the second moment of the single drop delta_a: a
double sum of injection moments over the descendant set of a, which is the
identity the reconstruction algorithm tests edge by edge.  An analytic
``MomentSet`` keeps the drop moments and answers that statistic from them,
without subtracting nearly equal voltage moments, so exact recovery holds at
any tolerance above rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import AssumptionViolation, DomainError, ModelError, ParseError
# path_sum_matrix is unused here but kept: perfbench/spans.py wraps it on this module by name.
from .grid import ForestConfig, LineEdge, _is_index, _is_number, _repeated, path_sum_matrix  # noqa: F401
from .powerflow import (InjectionVector, VoltageSamples, _build_level_plan, _Deferred, _LevelPlan,
                        _ReadOnFirstAccess, _root_path_sums, _rows, _subtree_sums, effective_impedance)

__all__ = [
    "InjectionModel",
    "InjectionBatch",
    "MomentSet",
    "LineDrops",
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


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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
    # The connected components of the covariance pattern, as ascending
    # indices into ``nodes``, in the order of their first index; found by
    # the PSD check.
    components: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._check_entries()
        object.__setattr__(self, "components", self._check_psd())

    @classmethod
    def _built(cls, verdict: Callable[[], tuple[np.ndarray, ...]], **fields) -> "InjectionModel":
        """A model whose builder decides positive semidefiniteness itself:
        the entry checks run, then ``verdict``, which raises ModelError or
        returns the components, in place of ``_check_psd``."""
        model = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(model, name, value)
        model._check_entries()
        object.__setattr__(model, "components", verdict())
        return model

    def _check_entries(self):
        """Coerce the arrays to float and reject a repeated node id and
        mis-shaped, non-finite or asymmetric entries."""
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

    def _check_psd(self) -> tuple[np.ndarray, ...]:
        """The generic positive-semidefiniteness check, which every model
        but ``default_model``'s takes: reject a joint covariance of (p, q)
        with an eigenvalue below -slack * scale, one connected component of
        the covariance pattern at a time, and return the components.

        Nodes i and j share a component when any of omega_p, omega_q,
        omega_pq or its transpose is nonzero at (i, j).  In component-major
        order the joint covariance is block diagonal with one block per
        component, so the blocks together have its eigenvalues.  ``scale`` is
        the largest magnitude of an omega entry, and at least 1.
        """
        n = len(self.nodes)
        coupled = np.zeros((n, n), dtype=bool)
        scale = 1.0
        for name in ("omega_p", "omega_q", "omega_pq"):  # one N x N matrix at a time
            omega = getattr(self, name)
            coupled |= omega != 0
            scale = max(scale, float(omega.max(initial=0.0)), -float(omega.min(initial=0.0)))
        del omega
        threshold = _PSD_SLACK * scale
        coupled |= coupled.T
        components = _components(coupled)
        for comp in components:
            ix = np.ix_(comp, comp)
            mp, mq = self.mu_p[comp], self.mu_q[comp]
            opq = self.sigma_pq[ix] - np.outer(mp, mq)  # the block of omega_pq, and so on
            joint = np.block([[self.sigma_p[ix] - np.outer(mp, mp), opq],
                              [opq.T, self.sigma_q[ix] - np.outer(mq, mq)]])
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
        return tuple(components)

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
    def from_covariances(cls, nodes, mu_p, mu_q, omega_p, omega_q, omega_pq) -> "InjectionModel":
        mu_p = np.asarray(mu_p, dtype=float)
        mu_q = np.asarray(mu_q, dtype=float)
        return cls(
            nodes=tuple(nodes), mu_p=mu_p, mu_q=mu_q,
            sigma_p=np.asarray(omega_p, dtype=float) + np.outer(mu_p, mu_p),
            sigma_q=np.asarray(omega_q, dtype=float) + np.outer(mu_q, mu_q),
            sigma_pq=np.asarray(omega_pq, dtype=float) + np.outer(mu_p, mu_q),
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
            sigma_pq=self.sigma_pq[np.ix_(perm, perm)],
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


@dataclass(frozen=True)
class MomentSet:
    """Second moments of voltage deviations (and phases when available).

    ``source`` is "analytic" or "empirical"; ``m`` carries the sample count
    for empirical sets.  Substations carry identically zero deviations and
    are therefore not part of the matrices.  An analytic set computes its
    phase moments when one of them is first read, and carries in ``drops``
    the line-drop moments that answer E[(eps_a - eps_b)^2] exactly.
    """

    nodes: tuple[int, ...]
    sigma_eps: np.ndarray
    sigma_theta: np.ndarray | None = _ReadOnFirstAccess()
    sigma_theta_eps: np.ndarray | None = _ReadOnFirstAccess()
    source: str
    m: int | None = None
    drops: LineDrops | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if (nid := _repeated(self.nodes)) is not None:
            raise DomainError(f"node id {nid} is listed twice")
        self._check_field("sigma_eps", self.sigma_eps)
        for name in ("sigma_theta", "sigma_theta_eps"):
            matrix = self.__dict__[name]
            if matrix is not None and not isinstance(matrix, _Deferred):
                self._check_field(name, matrix)

    def _check_field(self, name: str, matrix):
        n = len(self.nodes)
        if np.shape(matrix) != (n, n):
            raise DomainError(f"{name} must have shape ({n}, {n}) for {n} nodes, got {np.shape(matrix)}")


def default_model(forest: ForestConfig, mu_p: float = -0.005, sigma_ratio: float = 0.2,
                  rho: float = 0.1, q_alpha: float = 0.3, q_noise_ratio: float = 0.2) -> InjectionModel:
    """Gaussian consumption model satisfying the positivity assumption.

    Every load consumes mu_p on average, with active-power covariance
    sigma^2 (I + rho * ones) within each tree (sigma = sigma_ratio * |mu_p|)
    and zero correlation across trees; reactive injections are q_alpha * p
    plus independent noise.  All constants are overridable defaults and
    must be finite.

    Each moment matrix holds three values: on the diagonal, between two
    loads of one tree and across trees.  They are computed once, as
    omega + mu mu^T with the bits an N x N evaluation gives, and written
    directly; the joint covariance is decided positive semidefinite in
    closed form (``_tree_verdict``), with no factorization.  The entry
    checks are those of every other model.
    """
    params = {"mu_p": mu_p, "sigma_ratio": sigma_ratio, "rho": rho, "q_alpha": q_alpha,
              "q_noise_ratio": q_noise_ratio}
    for name, value in params.items():
        if not _finite(value):
            raise DomainError(f"default-model parameter {name} must be finite, got {value}")
    nodes = forest.grid.load_ids
    n = len(nodes)
    sig = sigma_ratio * abs(mu_p)
    mu_q = q_alpha * mu_p
    sig_eta = q_noise_ratio * abs(mu_q)
    # (diagonal, same tree, across trees) of each omega, then of each sigma;
    # float() as storing into a float array would.
    omega_p = (float(sig * sig * (1.0 + rho)), float(rho * sig * sig), 0.0)
    noise = ((1.0 * sig_eta) * sig_eta, (0.0 * sig_eta) * sig_eta, (0.0 * sig_eta) * sig_eta)
    omega_q = [q_alpha * q_alpha * w + e for w, e in zip(omega_p, noise)]
    omega_pq = [q_alpha * w for w in omega_p]
    mp, mq = float(mu_p), float(mu_q)
    means = (mp * mp, mq * mq, mp * mq)
    sigmas = [[w + mean for w in omega] for omega, mean in zip((omega_p, omega_q, omega_pq), means)]

    tree = forest.load_tree_index
    same_tree = tree[:, None] == tree[None, :]

    def matrix(diagonal, within, across):
        out = np.where(same_tree, within, across)
        np.fill_diagonal(out, diagonal)
        return out

    # The diagonal and same-tree omega entries as _check_psd reads them back: sigma - mu mu^T.
    diagonal, within = ([sigma[k] - mean for sigma, mean in zip(sigmas, means)] for k in (0, 1))
    return InjectionModel._built(lambda: _tree_verdict(tree, diagonal, within),
                                 nodes=nodes, mu_p=np.full(n, mp), mu_q=np.full(n, mq),
                                 sigma_p=matrix(*sigmas[0]), sigma_q=matrix(*sigmas[1]),
                                 sigma_pq=matrix(*sigmas[2]))


def _tree_verdict(tree: np.ndarray, diagonal: list[float], within: list[float]) -> tuple[np.ndarray, ...]:
    """``InjectionModel._check_psd`` in closed form, for a model whose
    omega_p, omega_q and omega_pq hold ``diagonal`` on the diagonal,
    ``within`` between two loads of one tree and zero across trees;
    ``tree`` is the tree index of each load.

    On a tree of n_k loads each of the three is (d - w) I + w 11^T.  They
    share the eigenvector 1, with eigenvalue d + (n_k - 1) w, and its
    orthogonal complement, with eigenvalue d - w when n_k > 1.  So the joint
    covariance splits into 2x2 blocks [[a_p, a_pq], [a_pq, a_q]], one per
    eigenvalue triple a, and its smallest eigenvalue is theirs.  That is
    held to the same threshold, with the same ModelError; the components
    returned are those ``_check_psd`` finds: the trees when a ``within``
    value is nonzero, else one component per load.
    """
    if not len(tree):
        return ()
    sizes = sorted(set(np.bincount(tree).tolist()) - {0})
    shared = sizes[-1] > 1  # some tree has two loads, so ``within`` is an entry
    scale = max(1.0, *map(abs, diagonal), *(map(abs, within) if shared else ()))
    blocks = [[d + (k - 1) * w for d, w in zip(diagonal, within)] for k in sizes]
    if shared:
        blocks.append([d - w for d, w in zip(diagonal, within)])
    if min(0.5 * (p + q) - math.hypot(0.5 * (p - q), pq) for p, q, pq in blocks) < -_PSD_SLACK * scale:
        raise ModelError("joint covariance of (p, q) is not positive semidefinite")
    if not any(within):
        return tuple(np.arange(len(tree)).reshape(-1, 1))
    trees: dict[int, list[int]] = {}  # in the order of their first load, as _components finds them
    for i, k in enumerate(tree.tolist()):
        trees.setdefault(k, []).append(i)
    return tuple(np.array(members, dtype=np.intp) for members in trees.values())


def sample_injections(model: InjectionModel, m: int, seed) -> InjectionBatch:
    """Draw m joint Gaussian samples of (p, q); deterministic per seed."""
    if not _is_index(m):
        raise DomainError(f"sample count must be an integer, got {m!r}")
    if m < 1:
        raise DomainError(f"sample count must be at least 1, got {m}")
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


# -- infinite-sample moments in edge coordinates ---------------------------------
#
# With D the subtree indicator (row e marks the loads below line e), the
# drops are delta = R D p + X D q, eps = D^T delta, and the phases are the same
# root-path sums of phi = X D p - R D q.  The covariances are zero across the
# blocks the model's covariance components define, so the sweeps run one
# block at a time, on the level plan of the block's loads.

_WEIGHTS = {"eps": lambda r, x: (r, x), "theta": lambda r, x: (x, -r)}
# Moment name -> the (left, right) weights of its drop covariance.
_MOMENTS = {"sigma_eps": ("eps", "eps"), "sigma_theta": ("theta", "theta"),
            "sigma_theta_eps": ("theta", "eps")}


def _block_plans(forest: ForestConfig, model: InjectionModel) -> list[_LevelPlan]:
    """One level plan per block of trees, over the trees that one component
    of the injection covariance touches; ``model`` is aligned to the
    forest."""
    tree = forest.load_tree_index
    touched = np.zeros((forest.n_trees, forest.n_trees), dtype=bool)
    for comp in model.components:
        hit = np.bincount(tree[comp], minlength=forest.n_trees) > 0
        touched |= np.outer(hit, hit)
    blocks = _components(touched)
    block_of = np.empty(forest.n_trees, dtype=np.intp)
    for k, trees in enumerate(blocks):
        block_of[trees] = k
    orders = [[] for _ in blocks]
    for nid in forest.loads_by_depth:
        orders[block_of[forest.tree_of[nid]]].append(nid)
    return [_build_level_plan(forest, order) for order in orders if order]


def _outside_row(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with the zero outside row of a level-plan working array."""
    return np.concatenate([a, np.zeros((1, *a.shape[1:]))])


def _injection_sums(plan: _LevelPlan, mod: InjectionModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D W D^T over one block for W = omega_p, omega_q and omega_pq^T: the
    covariances of the injections summed below each pair of lines."""
    loads = plan.canon
    n = len(loads)
    ix = np.ix_(loads, loads)
    mp, mq = mod.mu_p[loads], mod.mu_q[loads]
    w = np.zeros((n + 1, 3 * n))
    for k, (sigma, left, right) in enumerate(((mod.sigma_p, mp, mp), (mod.sigma_q, mq, mq), (mod.sigma_pq, mp, mq))):
        np.subtract(sigma[ix], np.outer(left, right), out=w[:n, k * n:(k + 1) * n])  # omega, as the model has it
    _subtree_sums(plan, w)  # D W, side by side
    dw = np.zeros_like(w)
    np.concatenate([w[:n, k * n:(k + 1) * n].T for k in range(3)], axis=1, out=dw[:n])
    _subtree_sums(plan, dw)  # D (D W)^T
    return dw[:n, :n], dw[:n, n:2 * n], dw[:n, 2 * n:]


def _drop_covariance(sums, left, right) -> np.ndarray:
    """Cov(u1 P + v1 Q, u2 P + v2 Q) over one block's lines, for the
    weights left = (u1, v1) and right = (u2, v2)."""
    gp, gq, gqp = sums
    (u1, v1), (u2, v2) = left, right
    return (np.outer(u1, u2) * gp + np.outer(v1, v2) * gq
            + np.outer(u1, v2) * gqp.T + np.outer(v1, u2) * gqp)


def _path_sums(plan: _LevelPlan, block: np.ndarray) -> np.ndarray:
    """D^T block D, leaving ``block`` as it is."""
    half = _root_path_sums(plan, _outside_row(block))[:-1].T
    return _root_path_sums(plan, _outside_row(half))[:-1].T


class LineDrops:
    """The line-drop moments an analytic ``MomentSet`` was computed from.

    Per block, the covariance Delta of the drops delta_e of its lines; for
    every line, its mean drop m_e; for every load, the variance and mean of
    its deviation.  ``sq_diff`` reads E[(eps_a - eps_b)^2] from them without
    forming a difference of nearly equal voltage moments.  ``variant`` names
    the linear model whose line impedances weighted the drops.
    """

    def __init__(self, forest: ForestConfig, variant: str, plans: list[_LevelPlan], covariances: list[np.ndarray],
                 mean_drop: np.ndarray, variance: np.ndarray, mean: np.ndarray):
        self.variant = variant
        idx = forest.grid.load_index
        n = len(idx)
        # Lists of ints for the path walk; index n is every substation, at
        # depth 0.  Float values stay in arrays: a list of N new float
        # objects per set scattered over the heap and raised the peak RSS
        # of a run of feeder units.
        self._parent = [idx.get(forest.parent[nid], n) for nid in forest.grid.load_ids] + [n]
        self._depth = [forest.depth[nid] for nid in forest.grid.load_ids] + [0]
        block = np.empty(n, dtype=np.intp)
        local = np.empty(n, dtype=np.intp)
        for k, plan in enumerate(plans):
            block[plan.canon] = k
            local[plan.canon] = np.arange(len(plan.canon))
        self._block, self._local = block.tolist(), local
        self._covariances = covariances
        self._mean_drop = mean_drop
        self._variance, self._mean = variance, mean

    def sq_diff(self, i: int, j: int) -> float:
        """E[(eps_i - eps_j)^2] for two canonical load indices.

        Within a block this is u^T Delta u + (u^T m)^2, where u is +1 on the
        lines from load i up to the lowest common ancestor and -1 on those
        from j (on both whole root paths across trees); for a load and its
        parent it is Delta_ii + m_i^2.  Across blocks the deviations are
        uncorrelated: var_i + var_j + (E eps_i - E eps_j)^2.
        """
        block = self._block
        if block[i] != block[j]:
            shift = self._mean[i] - self._mean[j]
            return float(self._variance[i] + self._variance[j] + shift * shift)
        parent, depth = self._parent, self._depth
        up, down = [], []
        a, b = i, j
        while a != b:
            if depth[a] >= depth[b]:
                up.append(a)
                a = parent[a]
            else:
                down.append(b)
                b = parent[b]
        cov = self._covariances[block[i]]
        if len(up) + len(down) == 1:
            line = (up or down)[0]
            k = self._local[line]
            shift = self._mean_drop[line]
            return float(cov[k, k] + shift * shift)
        lines = np.array(up + down, dtype=np.intp)
        signs = np.repeat([1.0, -1.0], [len(up), len(down)])
        sub = self._local[lines]
        shift = signs @ self._mean_drop[lines]
        return float(signs @ cov[np.ix_(sub, sub)] @ signs + shift * shift)


def _edge_moments(forest: ForestConfig, model: InjectionModel, variant: str,
                  names: tuple[str, ...]) -> tuple[dict[str, np.ndarray], LineDrops | None]:
    """The moment matrices ``names`` of the linear model, in canonical
    order, and the line drops behind ``sigma_eps`` when it is asked for."""
    mod = _aligned(forest, model)
    lines = [effective_impedance(forest.grid.edges[forest.parent_edge[nid]], variant)
             for nid in forest.grid.load_ids]
    r = np.array([r for r, _ in lines])
    x = np.array([x for _, x in lines])
    kinds = dict.fromkeys(kind for name in names for kind in _MOMENTS[name])
    weights = {kind: _WEIGHTS[kind](r, x) for kind in kinds}
    plans = _block_plans(forest, mod)

    n = len(r)
    mean_drop = {kind: np.empty(n) for kind in kinds}
    mean = {kind: np.empty(n) for kind in kinds}
    mu = np.stack([mod.mu_p, mod.mu_q])
    for plan in plans:
        loads = plan.canon
        below = _subtree_sums(plan, _rows(plan, mu))[:-1]
        for kind, (u, v) in weights.items():
            drop = mean_drop[kind][loads] = u[loads] * below[:, 0] + v[loads] * below[:, 1]
            mean[kind][loads] = _root_path_sums(plan, _outside_row(drop))[:-1]

    out = {name: np.outer(mean[_MOMENTS[name][0]], mean[_MOMENTS[name][1]]) for name in names}
    covariances, variance = [], np.empty(n)
    for plan in plans:
        sums = _injection_sums(plan, mod)
        local = {kind: (u[plan.canon], v[plan.canon]) for kind, (u, v) in weights.items()}
        ix = np.ix_(plan.canon, plan.canon)
        for name in names:
            left, right = _MOMENTS[name]
            cov = _drop_covariance(sums, local[left], local[right])
            voltage = _path_sums(plan, cov)
            out[name][ix] += voltage
            if name == "sigma_eps":
                covariances.append(cov)
                variance[plan.canon] = voltage.diagonal()
    drops = None
    if "sigma_eps" in names:
        drops = LineDrops(forest, variant, plans, covariances, mean_drop["eps"], variance, mean["eps"])
    return out, drops


def analytic_sigma_eps(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact second moments of voltage deviations under the linear model:
    D^T E[delta delta^T] D for the line drops delta of the variant's
    effective impedances."""
    return _edge_moments(forest, model, variant, ("sigma_eps",))[0]["sigma_eps"]


def analytic_sigma_theta(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact second moments of phase deviations."""
    return _edge_moments(forest, model, variant, ("sigma_theta",))[0]["sigma_theta"]


def analytic_sigma_theta_eps(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> np.ndarray:
    """Exact phase/voltage cross moments E[theta eps^T]; not symmetric."""
    return _edge_moments(forest, model, variant, ("sigma_theta_eps",))[0]["sigma_theta_eps"]


def analytic_moment_set(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> MomentSet:
    """Exact voltage moments of the linear model, with the line drops that
    answer the learner's pair statistic.  ``sigma_eps`` is computed here;
    the phase moments are computed together when either is first read."""
    values, drops = _edge_moments(forest, model, variant, ("sigma_eps",))
    phases = _Deferred(lambda: _edge_moments(forest, model, variant, ("sigma_theta", "sigma_theta_eps"))[0])
    return MomentSet(nodes=forest.grid.load_ids, sigma_eps=values["sigma_eps"], sigma_theta=phases,
                     sigma_theta_eps=phases, source="analytic", drops=drops)


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
        "nodes": list(model.nodes),
        "mu_p": model.mu_p.tolist(),
        "mu_q": model.mu_q.tolist(),
        "sigma_p": model.sigma_p.tolist(),
        "sigma_q": model.sigma_q.tolist(),
        "sigma_pq": model.sigma_pq.tolist(),
    }


_DEFAULT_MODEL_KEYS = ("mu_p", "sigma_ratio", "rho", "q_alpha", "q_noise_ratio")


def _model_array(doc: dict, key: str, ndim: int, noun: str = "numbers", entry=_is_number):
    """``doc[key]`` once it is a list of entries (ndim 1) or a list of
    equal-length lists of entries (ndim 2); else ParseError naming the key."""
    if key not in doc:
        raise ParseError(f"missing required key {key!r}", "model")
    value = doc[key]
    rows = value if ndim == 2 else [value]
    if not (isinstance(value, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in rows)
            and len({len(row) for row in rows}) <= 1 and all(entry(v) for row in rows for v in row)):
        shape = "a list of equal-length lists" if ndim == 2 else "a list"
        raise ParseError(f"expected {shape} of {noun}", f"model.{key}")
    return value


def model_from_dict(doc: dict, forest: ForestConfig | None = None) -> InjectionModel:
    """Build a model from its JSON form: either {"kind": "default", ...}
    with the parametric constants (requires a forest) or an explicit
    {"kind": "explicit", nodes, means, moment matrices} document.

    A mis-typed value, a missing array or a key a default model does not
    take raises ParseError naming the key.  Injections are Gaussian; an
    explicit document may say so with ``"distribution": "gaussian"``."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {doc!r}", "model")
    kind = doc.get("kind", "default")
    if kind == "default":
        params = {k: v for k, v in doc.items() if k != "kind"}
        for key, value in params.items():
            if key not in _DEFAULT_MODEL_KEYS:
                raise ParseError(f"unknown key; a default model takes {', '.join(_DEFAULT_MODEL_KEYS)}",
                                 f"model.{key}")
            if not (_is_number(value) and _finite(value)):
                raise ParseError(f"expected a finite number, got {value!r}", f"model.{key}")
        if forest is None:
            raise DomainError("a forest is required to derive the default model")
        return default_model(forest, **params)
    if kind == "explicit":
        if doc.get("distribution", "gaussian") != "gaussian":
            raise ParseError(f"only 'gaussian' injections can be sampled, got {doc['distribution']!r}",
                             "model.distribution")
        return InjectionModel(
            nodes=tuple(_model_array(doc, "nodes", 1, "integer node ids", _is_index)),
            mu_p=_model_array(doc, "mu_p", 1),
            mu_q=_model_array(doc, "mu_q", 1),
            sigma_p=_model_array(doc, "sigma_p", 2),
            sigma_q=_model_array(doc, "sigma_q", 2),
            sigma_pq=_model_array(doc, "sigma_pq", 2),
        )
    raise ParseError(f"unknown model kind {kind!r}", "model.kind")
