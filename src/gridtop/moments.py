"""Injection statistics and second moments of voltage deviations.

Everything here works with NON-central second moments E[y y^T]; means are
part of the signal, and the positivity assumption that the learner depends
on is stated on these non-central matrices (it holds in particular whenever
every load node consumes strictly more than it produces, in both active and
reactive power).  Covariances are derived, informational quantities.

The analytic moments are computed in the forest's edge coordinates.  Index
each line by its child load: the drop across line e is delta_e = r_e P_e +
x_e Q_e, with P_e, Q_e the injections summed over e's subtree, and a
deviation is the sum of the drops on its root path.  The model's covariance
couples the trees in blocks, and deviations in two blocks are independent.
Within a block, two subtree sweeps of the model's sigma blocks, weighted by
the line impedances, give the drop second moments M = E[delta delta^T], and
two root-path sweeps of M give the voltage moments; across two blocks a
moment is the product of the means.  No covariance, inverse Laplacian or
dense response matrix is formed.  For a load a with parent b,
E[(eps_a - eps_b)^2] is the second moment of the single drop delta_a, one
diagonal entry of M: a double sum of injection moments over the descendant
set of a, which is the identity the reconstruction algorithm tests edge by
edge.  An analytic ``MomentSet`` keeps M and reads that statistic from it
without subtracting nearly equal voltage moments, so exact recovery holds at
any tolerance above rounding.  For every other pair the mean terms cancel in
the statistic, which keeps about one digit less, on pairs the learner must
reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import AssumptionViolation, DomainError, ModelError, ParseError
# path_sum_matrix is unused here but kept: perfbench/spans.py wraps it on this module by name.
from .grid import ForestConfig, LineEdge, _is_finite, _is_index, _is_number, _repeated, path_sum_matrix  # noqa: F401
from .powerflow import (VoltageSamples, _build_level_plan, _Deferred, _float_array, _impedance,
                        _LevelPlan, _ReadOnFirstAccess, _root_path_sums, _rows, _subtree_sums, effective_impedance)

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


def _equals_transpose(m: np.ndarray, tile: int = 256) -> bool:
    """``np.array_equal(m, m.T)`` for a square m, one pair of tiles at a
    time, so the transposed tile is read from cache and not across rows."""
    n = m.shape[0]
    return all(np.array_equal(m[i:i + tile, j:j + tile], m[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))


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
            object.__setattr__(self, name, _float_array(getattr(self, name), name, ModelError))
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
            if not (_equals_transpose(m)
                    or np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max()))):
                raise ModelError(f"{name} must be symmetric")

    def _check_psd(self) -> tuple[np.ndarray, ...]:
        """The generic positive-semidefiniteness check, which every model
        but ``default_model``'s takes: reject a joint covariance of (p, q)
        with an eigenvalue (``eigvalsh``) below -slack * scale, one connected
        component of the covariance pattern at a time, and return the
        components.

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
            if np.linalg.eigvalsh(joint).min() < -threshold:
                raise ModelError("joint covariance of (p, q) is not positive semidefinite")
        return tuple(components)

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
        nodes = tuple(nodes)
        n = len(nodes)
        mu_p = _float_array(mu_p, "mu_p", ModelError)
        mu_q = _float_array(mu_q, "mu_q", ModelError)
        if mu_p.shape != (n,) or mu_q.shape != (n,):
            raise ModelError(f"mean vectors must have shape ({n},)")
        sigmas = []
        for name, omega, left, right in (("omega_p", omega_p, mu_p, mu_p), ("omega_q", omega_q, mu_q, mu_q),
                                         ("omega_pq", omega_pq, mu_p, mu_q)):
            omega = _float_array(omega, name, ModelError)
            if omega.shape != (n, n):  # an outer product would broadcast it
                raise ModelError(f"{name} must have shape ({n}, {n}), got {omega.shape}")
            sigmas.append(omega + np.outer(left, right))
        return cls(nodes, mu_p, mu_q, *sigmas)

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
        object.__setattr__(self, "sigma_eps", self._check_field("sigma_eps", self.sigma_eps))
        for name in ("sigma_theta", "sigma_theta_eps"):
            matrix = self.__dict__[name]
            if matrix is not None and not isinstance(matrix, _Deferred):
                object.__setattr__(self, name, self._check_field(name, matrix))

    def _check_field(self, name: str, matrix) -> np.ndarray:
        matrix = _float_array(matrix, name)
        n = len(self.nodes)
        if matrix.shape != (n, n):
            raise DomainError(f"{name} must have shape ({n}, {n}) for {n} nodes, got {matrix.shape}")
        return matrix


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
        if not _is_finite(value):
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
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(f"seed must be a non-negative integer or a SeedSequence, got {seed!r}") from None
    mean = np.concatenate([model.mu_p, model.mu_q])
    draws = rng.multivariate_normal(mean, model.joint_covariance, size=m, method="eigh")
    n = len(model.nodes)
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


def _sigma_sq_diff(sigma: np.ndarray, i: int, j: int) -> float:
    """sigma_ii - 2 sigma_ij + sigma_jj: E[(eps_i - eps_j)^2] read from the
    second moments ``sigma`` of two deviations."""
    return float(sigma[i, i] - 2.0 * sigma[i, j] + sigma[j, j])


# -- infinite-sample moments in edge coordinates ---------------------------------
#
# With D the subtree indicator (row e marks the loads below line e), the
# drops are delta = R D p + X D q, eps = D^T delta, and the phases are the same
# root-path sums of phi = X D p - R D q.  The covariances are zero across the
# blocks the model's covariance components define, so a second moment there
# is the product of the means, and the sweeps of the second moments run one
# block at a time, on the level plan of the block's loads.

_WEIGHTS = {"eps": lambda r, x: (r, x), "theta": lambda r, x: (x, -r)}
# Moment name -> the (left, right) weights of its drop moments.
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
    """D S D^T over one block for S = sigma_p, sigma_q and sigma_pq^T: the
    second moments of the injections summed below each pair of lines."""
    loads = plan.canon
    n = len(loads)
    ix = np.ix_(loads, loads)
    w = np.zeros((n + 1, 3 * n))
    for k, sigma in enumerate((mod.sigma_p, mod.sigma_q, mod.sigma_pq)):
        w[:n, k * n:(k + 1) * n] = sigma[ix]
    _subtree_sums(plan, w)  # D S, side by side
    dw = np.zeros_like(w)
    np.concatenate([w[:n, k * n:(k + 1) * n].T for k in range(3)], axis=1, out=dw[:n])
    _subtree_sums(plan, dw)  # D (D S)^T
    return dw[:n, :n], dw[:n, n:2 * n], dw[:n, 2 * n:]


def _drop_moments(sums, left, right) -> np.ndarray:
    """E[(u1 P + v1 Q)(u2 P + v2 Q)^T] over one block's lines, for the
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

    Per block of trees, M = E[delta delta^T] over its lines, in the rows of
    the block's level plan, and the plan's parent rows; across blocks, the
    set's ``sigma_eps``.  ``sq_diff`` reads E[(eps_a - eps_b)^2] from them:
    for a tree line one entry of M, to a few ulps; for any other pair a sum
    in which the mean terms cancel, to about 1e-13 relative on 1000-load
    feeders.  ``variant`` names the linear model whose line impedances
    weighted the drops.
    """

    def __init__(self, variant: str, plans: list[_LevelPlan], moments: list[np.ndarray], sigma_eps: np.ndarray):
        self.variant = variant
        n = sigma_eps.shape[0]
        block = np.empty(n, dtype=np.intp)
        local = np.empty(n, dtype=np.intp)
        # Lists of ints for the path walk: per block, each row's parent row,
        # with the plan's -1 for a substation, which sorts below every load.
        self._parents = []
        for k, plan in enumerate(plans):
            block[plan.canon] = k
            local[plan.canon] = np.arange(len(plan.canon))
            self._parents.append(np.concatenate(plan.parents).tolist())
        self._block, self._local = block.tolist(), local.tolist()
        self._moments = moments
        self._sigma_eps = sigma_eps

    def sq_diff(self, i: int, j: int) -> float:
        """E[(eps_i - eps_j)^2] for two canonical load indices.

        Within a block this is u^T M u, where u is +1 on the lines from load
        i up to the lowest common ancestor and -1 on those from j (on both
        whole root paths across trees); for a load and its parent it is one
        diagonal entry of M.  Across blocks the deviations are independent,
        and it is sigma_ii - 2 sigma_ij + sigma_jj.
        """
        k = self._block[i]
        if k != self._block[j]:
            return _sigma_sq_diff(self._sigma_eps, i, j)
        # Rows sort by (depth, id), so the larger of two rows is at least as deep.
        parent = self._parents[k]
        up, down = [], []
        a, b = self._local[i], self._local[j]
        while a != b:
            if a > b:
                up.append(a)
                a = parent[a]
            else:
                down.append(b)
                b = parent[b]
        moments = self._moments[k]
        if len(up) + len(down) == 1:
            line = (up or down)[0]
            return float(moments[line, line])
        lines = np.array(up + down, dtype=np.intp)
        signs = np.repeat([1.0, -1.0], [len(up), len(down)])
        return float(signs @ moments[np.ix_(lines, lines)] @ signs)


def _edge_moments(forest: ForestConfig, model: InjectionModel, variant: str,
                  names: tuple[str, ...]) -> tuple[dict[str, np.ndarray], LineDrops | None]:
    """The moment matrices ``names`` of the linear model, in canonical
    order, and the line drops behind ``sigma_eps`` when it is asked for.

    An entry across two blocks is the product of the two means; a block's
    own entries are the path sums of its drop moments."""
    mod = model.aligned_to(forest.grid.load_ids)
    impedance = _impedance(variant)
    kinds = dict.fromkeys(kind for name in names for kind in _MOMENTS[name])
    plans = _block_plans(forest, mod)
    weights = [{kind: _WEIGHTS[kind](*impedance(plan.r[:, 0], plan.x[:, 0])) for kind in kinds} for plan in plans]

    mean = {kind: np.empty(forest.grid.n_loads) for kind in kinds}
    mu = np.stack([mod.mu_p, mod.mu_q])
    for plan, local in zip(plans, weights):
        below = _subtree_sums(plan, _rows(plan, mu))[:-1]
        for kind, (u, v) in local.items():
            mean[kind][plan.canon] = _root_path_sums(plan, _outside_row(u * below[:, 0] + v * below[:, 1]))[:-1]

    out = {name: np.outer(mean[_MOMENTS[name][0]], mean[_MOMENTS[name][1]]) for name in names}
    moments = []
    for plan, local in zip(plans, weights):
        sums = _injection_sums(plan, mod)
        for name in names:
            left, right = _MOMENTS[name]
            block = _drop_moments(sums, local[left], local[right])
            out[name][np.ix_(plan.canon, plan.canon)] = _path_sums(plan, block)
            if name == "sigma_eps":
                moments.append(block)
    return out, (LineDrops(variant, plans, moments, out["sigma_eps"]) if "sigma_eps" in names else None)


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
    if child not in forest.grid.load_index:
        raise DomainError(f"node {child} is not a load of the forest")
    if forest.parent.get(child) != parent:
        raise DomainError(f"node {parent} is not the parent of node {child}")
    mod = model.aligned_to(forest.grid.load_ids)
    members = forest.descendant_load_indices[child]
    block = np.ix_(members, members)
    sums = (float(m[block].sum()) for m in (mod.sigma_p, mod.sigma_q, mod.sigma_pq))
    return edge_sq_diff(forest.grid.edges[forest.parent_edge[child]], variant, *sums)


def assumption1_violations(forest: ForestConfig, model: InjectionModel) -> list[tuple[int, int, str]]:
    """Same-tree node pairs whose non-central moments are not strictly
    positive, as (node_a, node_b, matrix-name) triples; empty when the
    positivity assumption holds."""
    mod = model.aligned_to(forest.grid.load_ids)
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
_EXPLICIT_MODEL_KEYS = ("kind", "nodes", "mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq", "distribution")


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

    A mis-typed value, a missing array or a key the model's kind does not
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
            if not _is_finite(value):
                raise ParseError(f"expected a finite number, got {value!r}", f"model.{key}")
        if forest is None:
            raise DomainError("a forest is required to derive the default model")
        return default_model(forest, **params)
    if kind == "explicit":
        for key in doc:
            if key not in _EXPLICIT_MODEL_KEYS:
                raise ParseError(f"unknown key; an explicit model takes {', '.join(_EXPLICIT_MODEL_KEYS)}",
                                 f"model.{key}")
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
