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
import reprlib
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from .errors import DomainError, ModelError, ParseError
# path_sum_matrix is unused here but kept: perfbench/spans.py wraps it on this module by name.
from .grid import (ForestConfig, _build_level_plan, _entry, _is_finite, _is_index,  # noqa: F401
                   _is_number, _known_keys, _LevelPlan, _list_of, _outside_row, _path_sums, _repeated,
                   _root_path_sums, _rows, _subtree_sums, path_sum_matrix)
from .powerflow import VoltageSamples, _float_array, _impedance

__all__ = [
    "InjectionModel",
    "InjectionBatch",
    "MomentSet",
    "LineDrops",
    "default_model",
    "sample_injections",
    "empirical_moments",
    "analytic_moment_set",
    "assumption1_violations",
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


class InjectionModel:
    """Means and non-central second moments of nodal power injections.

    ``nodes`` fixes the row/column meaning of all matrices; sigma_p, sigma_q
    are symmetric, sigma_pq is E[p q^T] (generally not symmetric), and the
    joint covariance of (p, q) must be positive semidefinite.

    The model is stored as its means and one (sigma_p, sigma_q, sigma_pq)
    block per storage group: a set of loads, chosen so that every entry
    between two groups has the bits of fl(mu_i mu_j).  ``block`` reads any
    entries from them; the dense ``sigma_*``, ``omega_*`` and
    ``joint_covariance`` are rebuilt, as new arrays, on each read.
    """

    def __init__(self, nodes, mu_p, mu_q, sigma_p, sigma_q, sigma_pq):
        mu_p, mu_q, *sigmas = _checked_entries(nodes, mu_p, mu_q, sigma_p, sigma_q, sigma_pq)
        components, groups = _check_psd(mu_p, mu_q, sigmas)
        self._store(nodes, mu_p, mu_q, components, groups,
                    tuple(tuple(sigma[np.ix_(g, g)] for sigma in sigmas) for g in groups))

    @classmethod
    def _built(cls, nodes, mu_p, mu_q, components, groups, group_sigmas) -> "InjectionModel":
        """A model whose builder has settled every check itself, so neither
        ``_checked_entries`` nor ``_check_psd`` runs: the node ids are
        distinct ints, the arrays are float, of the right shapes, finite and
        symmetric, ``components`` is the verdict ``_check_psd`` gives and
        ``groups`` are valid storage groups."""
        model = object.__new__(cls)
        model._store(nodes, mu_p, mu_q, components, groups, group_sigmas)
        return model

    def _store(self, nodes, mu_p, mu_q, components, groups, group_sigmas):
        self.nodes = nodes
        self.mu_p, self.mu_q = mu_p, mu_q
        # The connected components of the covariance pattern, as ascending
        # indices into ``nodes``, in the order of their first index; found by
        # the PSD check.
        self.components: tuple[np.ndarray, ...] = components
        # The storage groups, as ascending indices into ``nodes``, and per
        # group its (sigma_p, sigma_q, sigma_pq) block over those indices.
        self.groups: tuple[np.ndarray, ...] = groups
        self.group_sigmas: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = group_sigmas
        # Per load, its storage group and its index in that group's blocks.
        self.group_of = np.empty(len(nodes), dtype=np.intp)
        self.index_in_group = np.empty(len(nodes), dtype=np.intp)
        for g, members in enumerate(groups):
            self.group_of[members] = g
            self.index_in_group[members] = np.arange(len(members))

    def block(self, k: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The bits of ``sigma[np.ix_(rows, cols)]`` for sigma = sigma_p,
        sigma_q, sigma_pq (k = 0, 1, 2), as a new array; ``rows`` and
        ``cols`` are index arrays into ``nodes``."""
        gr, gc = self.group_of[rows], self.group_of[cols]
        lr, lc = self.index_in_group[rows], self.index_in_group[cols]
        if gr.size and gc.size and (gr == gr[0]).all() and (gc == gr[0]).all():  # within one group
            blk = self.group_sigmas[gr[0]][k]
            # One flat take over the row-major positions: the values of
            # blk[np.ix_(lr, lc)], gathered faster.
            return blk.take(np.add.outer(lr * blk.shape[1], lc))
        out = self._mean_products(k, rows, cols)
        for g in set(gr.tolist()).intersection(gc.tolist()):  # groups hold disjoint entries, in any order
            ri, ci = np.flatnonzero(gr == g), np.flatnonzero(gc == g)
            out[ri[:, None], ci] = self.group_sigmas[g][k][lr[ri][:, None], lc[ci]]
        return out

    def _mean_products(self, k: int, rows, cols) -> np.ndarray:
        left, right = ((self.mu_p, self.mu_q)[side] for side in _MEAN_PAIRS[k])
        return np.outer(left[rows], right[cols])

    def _dense(self, k: int) -> np.ndarray:
        """``block`` over every row and column, one group block at a time."""
        every = slice(None)
        out = self._mean_products(k, every, every)
        for members, blocks in zip(self.groups, self.group_sigmas):
            out[members[:, None], members] = blocks[k]
        return out

    @property
    def sigma_p(self) -> np.ndarray:
        return self._dense(0)

    @property
    def sigma_q(self) -> np.ndarray:
        return self._dense(1)

    @property
    def sigma_pq(self) -> np.ndarray:
        return self._dense(2)

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
        omega_pq = self.omega_pq
        top = np.hstack([self.omega_p, omega_pq])
        bot = np.hstack([omega_pq.T, self.omega_q])
        return np.vstack([top, bot])

    def aligned_to(self, nodes: Iterable[int]) -> "InjectionModel":
        """Reindex the model to another node ordering (same node set)."""
        nodes = tuple(nodes)
        if nodes == self.nodes:
            return self
        if set(nodes) != set(self.nodes):
            missing, extra = sorted(set(nodes) - set(self.nodes)), sorted(set(self.nodes) - set(nodes))
            found = [f"{what} {reprlib.repr(ids)}" for what, ids in (("missing", missing), ("extra", extra)) if ids]
            raise DomainError(f"model nodes do not match the requested node set: {', '.join(found)}")
        pos = {nid: i for i, nid in enumerate(self.nodes)}
        perm = np.array([pos[nid] for nid in nodes], dtype=np.intp)
        return InjectionModel(nodes, self.mu_p[perm], self.mu_q[perm],
                              *(self.block(k, perm, perm) for k in range(3)))


# The means (0 for mu_p, 1 for mu_q) whose outer product each of sigma_p,
# sigma_q and sigma_pq is between two storage groups.
_MEAN_PAIRS = ((0, 0), (1, 1), (0, 1))
_SIGMA_NAMES = ("sigma_p", "sigma_q", "sigma_pq")


def _checked_entries(nodes, *arrays) -> list[np.ndarray]:
    """mu_p, mu_q, sigma_p, sigma_q and sigma_pq as float arrays; a
    ModelError for a repeated node id and mis-shaped, non-finite or
    asymmetric entries."""
    n = len(nodes)
    for nid in nodes:
        if not _is_index(nid):
            raise ModelError(f"node id {nid!r} is not an integer (node ids {reprlib.repr(nodes)})")
    if (nid := _repeated(nodes)) is not None:
        raise ModelError(f"node id {nid} is listed twice")
    names = ("mu_p", "mu_q") + _SIGMA_NAMES
    mu_p, mu_q, *sigmas = arrays = [_float_array(value, name, ModelError) for value, name in zip(arrays, names)]
    if mu_p.shape != (n,) or mu_q.shape != (n,):
        raise ModelError(f"mean vectors must have shape ({n},)")
    for name, m in zip(_SIGMA_NAMES, sigmas):
        if m.shape != (n, n):
            raise ModelError(f"{name} must have shape ({n}, {n}), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ModelError(f"{name} contains non-finite entries")
    if not (np.all(np.isfinite(mu_p)) and np.all(np.isfinite(mu_q))):
        raise ModelError("mean vectors contain non-finite entries")
    for name, m in zip(_SIGMA_NAMES[:2], sigmas):
        if not (_equals_transpose(m) or np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max()))):
            raise ModelError(f"{name} must be symmetric")
    return arrays


def _check_psd(mu_p: np.ndarray, mu_q: np.ndarray, sigmas) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The generic positive-semidefiniteness check, which every model but
    ``default_model``'s takes: reject a joint covariance of (p, q) with an
    eigenvalue (``eigvalsh``) below -slack * scale, one connected component
    of the covariance pattern at a time, and return the components and the
    storage groups.

    Nodes i and j share a component when any of omega_p, omega_q, omega_pq
    or its transpose is nonzero at (i, j).  In component-major order the
    joint covariance is block diagonal with one block per component, so the
    blocks together have its eigenvalues.  ``scale`` is the largest
    magnitude of an omega entry, and at least 1.

    Nodes i and j share a storage group when one of the sigmas or its
    transpose differs at (i, j) in bits from the product of the means.  That
    pattern holds the covariance pattern, since sigma - mu mu^T is zero only
    where the two are equal, and differs from it only where the two are
    zeros of opposite sign; so each component lies in one storage group.
    """
    n = len(mu_p)
    coupled = np.zeros((n, n), dtype=bool)
    stored = np.zeros((n, n), dtype=bool)
    scale = 1.0
    mus = (mu_p, mu_q)
    for name, sigma, (left, right) in zip(("omega_p", "omega_q", "omega_pq"), sigmas, _MEAN_PAIRS):
        with np.errstate(over="ignore"):  # means too large for the moments are refused below
            means = np.outer(mus[left], mus[right])
            omega = sigma - means
        if not np.all(np.isfinite(omega)):
            raise ModelError(f"{name}, the covariance from the moments and means, contains non-finite entries")
        coupled |= omega != 0
        stored |= sigma.view(np.int64) != means.view(np.int64)
        scale = max(scale, float(omega.max(initial=0.0)), -float(omega.min(initial=0.0)))
    del omega, means
    threshold = _PSD_SLACK * scale
    coupled |= coupled.T
    components = _components(coupled)
    sigma_p, sigma_q, sigma_pq = sigmas
    for comp in components:
        ix = np.ix_(comp, comp)
        mp, mq = mu_p[comp], mu_q[comp]
        opq = sigma_pq[ix] - np.outer(mp, mq)  # the block of omega_pq, and so on
        joint = np.block([[sigma_p[ix] - np.outer(mp, mp), opq],
                          [opq.T, sigma_q[ix] - np.outer(mq, mq)]])
        if np.linalg.eigvalsh(joint).min() < -threshold:
            raise ModelError("joint covariance of (p, q) is not positive semidefinite")
    stored |= stored.T
    return tuple(components), tuple(_components(stored))


@dataclass(frozen=True)
class InjectionBatch:
    """m injection vectors stacked row-wise."""

    nodes: tuple[int, ...]
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return self.p.shape[0]


class MomentSet:
    """Second moments of voltage deviations (magnitudes only: the learner
    reads no phases).

    ``m`` carries the sample count of an empirical set.  Substations carry
    identically zero deviations and are therefore not part of the matrix.
    An analytic set carries in ``drops`` the line-drop and voltage moments
    it was computed from, which answer E[(eps_a - eps_b)^2] exactly; it is
    built without ``sigma_eps``, which they give on first read.
    """

    def __init__(self, nodes: tuple[int, ...], sigma_eps: np.ndarray | None = None, m: int | None = None,
                 drops: LineDrops | None = None):
        if (nid := _repeated(nodes)) is not None:
            raise DomainError(f"node id {nid} is listed twice")
        if sigma_eps is not None or drops is None:
            n = len(nodes)
            sigma_eps = _float_array(sigma_eps, "sigma_eps")
            if sigma_eps.shape != (n, n):
                raise DomainError(f"sigma_eps must have shape ({n}, {n}) for {n} nodes, got {sigma_eps.shape}")
        self.nodes, self.m, self.drops = nodes, m, drops
        self._sigma_eps = sigma_eps

    @property
    def sigma_eps(self) -> np.ndarray:
        if self._sigma_eps is None:
            self._sigma_eps = self.drops.sigma_eps()
        return self._sigma_eps

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.nodes, self.m) == (other.nodes, other.m) and np.array_equal(self.sigma_eps, other.sigma_eps)

    def __repr__(self) -> str:
        return f"MomentSet(nodes={self.nodes!r}, m={self.m!r})"


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
    omega + mu mu^T with the bits an N x N evaluation gives.  The trees are
    the storage groups, and each tree's blocks are written directly.  An
    across value is the mean product plus a zero (for sigma_pq one with
    q_alpha's sign, as is the product's), so it has the product's bits, and
    the model stores none.  The checks every other model takes are settled
    from those values, with the same ModelError texts: the entries are
    finite when the values that occur are (the diagonal always; the
    same-tree value when a tree has two loads; the across value when two
    trees have loads), tested in ``_checked_entries``' order; each matrix
    is symmetric, as one value is written over a symmetric pattern; the node
    ids are the grid's, so they are distinct ints.  The joint covariance is
    decided positive semidefinite in closed form (``_tree_verdict``), with
    no factorization.
    """
    params = {"mu_p": mu_p, "sigma_ratio": sigma_ratio, "rho": rho, "q_alpha": q_alpha,
              "q_noise_ratio": q_noise_ratio}
    for name, value in params.items():
        if not _is_finite(value):
            raise DomainError(f"default-model parameter {name} must be finite, got {value}")
    # As Python floats: numpy scalars would announce an overflow the entry checks refuse.
    mu_p, sigma_ratio, rho, q_alpha, q_noise_ratio = map(float, params.values())
    nodes = forest.grid.load_ids
    n = len(nodes)
    sig = sigma_ratio * abs(mu_p)
    mu_q = q_alpha * mu_p
    sig_eta = q_noise_ratio * abs(mu_q)
    # (diagonal, same tree, across trees) of each omega, then of each sigma.
    omega_p = (sig * sig * (1.0 + rho), rho * sig * sig, 0.0)
    noise = ((1.0 * sig_eta) * sig_eta, (0.0 * sig_eta) * sig_eta, (0.0 * sig_eta) * sig_eta)
    omega_q = [q_alpha * q_alpha * w + e for w, e in zip(omega_p, noise)]
    omega_pq = [q_alpha * w for w in omega_p]
    means = (mu_p * mu_p, mu_q * mu_q, mu_p * mu_q)
    sigmas = [[w + mean for w in omega] for omega, mean in zip((omega_p, omega_q, omega_pq), means)]

    tree = forest.load_tree_index
    per_tree = np.bincount(tree)
    occurs = (True, bool((per_tree > 1).any()), int(np.count_nonzero(per_tree)) > 1)
    for name, values in zip(("sigma_p", "sigma_q", "sigma_pq"), sigmas):
        if not all(map(math.isfinite, compress(values, occurs))):
            raise ModelError(f"{name} contains non-finite entries")
    if not (math.isfinite(mu_p) and math.isfinite(mu_q)):
        raise ModelError("mean vectors contain non-finite entries")
    # The diagonal and same-tree omega entries as _check_psd reads them back: sigma - mu mu^T.
    diagonal, within = ([sigma[k] - mean for sigma, mean in zip(sigmas, means)] for k in (0, 1))
    components = _tree_verdict(tree, diagonal, within)

    def block(size, diagonal, within):
        out = np.empty((size, size))
        out.fill(within)
        out.reshape(-1)[::size + 1] = diagonal
        return out

    groups = _trees(tree)
    return InjectionModel._built(nodes, np.full(n, mu_p), np.full(n, mu_q), components, groups,
                                 tuple(tuple(block(len(g), *sigma[:2]) for sigma in sigmas) for g in groups))


def _trees(tree: np.ndarray) -> tuple[np.ndarray, ...]:
    """The loads of each tree, as ascending indices, in the order of their
    first load, as ``_components`` finds them; ``tree`` is the tree index
    of each load."""
    order = np.argsort(tree, kind="stable")
    trees = np.split(order, np.flatnonzero(np.diff(tree[order])) + 1)
    return tuple(sorted(trees, key=lambda members: members[0]))


def _tree_verdict(tree: np.ndarray, diagonal: list[float], within: list[float]) -> tuple[np.ndarray, ...]:
    """``_check_psd`` in closed form, for a model whose
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
    sizes = sorted(set(np.bincount(tree).tolist()) - {0})
    shared = sizes[-1] > 1  # some tree has two loads, so ``within`` is an entry
    scale = max(1.0, *map(abs, diagonal), *(map(abs, within) if shared else ()))
    # A one-load tree's triple is the diagonal: a ``within`` that is no entry
    # may be infinite, and 0 * inf would make it nan.
    blocks = [diagonal if k == 1 else [d + (k - 1) * w for d, w in zip(diagonal, within)] for k in sizes]
    if shared:
        blocks.append([d - w for d, w in zip(diagonal, within)])
    if min(0.5 * (p + q) - math.hypot(0.5 * (p - q), pq) for p, q, pq in blocks) < -_PSD_SLACK * scale:
        raise ModelError("joint covariance of (p, q) is not positive semidefinite")
    if not any(within):
        return tuple(np.arange(len(tree)).reshape(-1, 1))
    return _trees(tree)


class _Sampler:
    """Joint Gaussian draws of (p, q) from one model, into buffers reused
    from draw to draw.

    The covariance is factored once, by ``eigh``, as F = u sqrt(|s|); a draw
    of m samples is m rows of standard normals x, then x F^T + mean.  These
    are the steps, and so the bits, of numpy's multivariate normal draw with
    ``method="eigh"``.  A draw's batch is a view of the sampler's buffer,
    valid until the next draw.
    """

    def __init__(self, model: InjectionModel, capacity: int):
        s, u = np.linalg.eigh(model.joint_covariance)
        self._factor_t = (u * np.sqrt(np.abs(s))).T
        self._mean = np.concatenate([model.mu_p, model.mu_q])
        self._nodes = model.nodes
        try:
            self._draws = np.empty((capacity, self._mean.size))
            self._mixed = np.empty_like(self._draws)
        except (ValueError, MemoryError) as exc:
            raise DomainError(f"cannot hold {capacity} samples of {self._mean.size} injections: {exc}") from None

    def draw(self, m: int, seed) -> InjectionBatch:
        """m samples from the stream of ``seed``; m is at least 1 and at most
        the capacity the sampler was built with."""
        try:
            rng = np.random.default_rng(seed)
        except (TypeError, ValueError):
            raise DomainError(f"seed must be a non-negative integer or a SeedSequence, got {seed!r}") from None
        draws, mixed = self._draws[:m], self._mixed[:m]
        rng.standard_normal(out=draws)
        np.matmul(draws, self._factor_t, out=mixed)
        mixed += self._mean
        n = len(self._nodes)
        return InjectionBatch(nodes=self._nodes, p=mixed[:, :n], q=mixed[:, n:])


def sample_injections(model: InjectionModel, m: int, seed) -> InjectionBatch:
    """Draw m joint Gaussian samples of (p, q); deterministic per seed.  The
    batch owns its arrays."""
    if not _is_index(m):
        raise DomainError(f"sample count must be an integer, got {m!r}")
    if m < 1:
        raise DomainError(f"sample count must be at least 1, got {m}")
    return _Sampler(model, m).draw(m, seed)


def empirical_moments(samples: VoltageSamples) -> MomentSet:
    """Non-central sample moments (1/m) sum_j eps_a^j eps_b^j of a stacked
    batch, by one matrix product; a DomainError naming the first pair of
    nodes whose moment overflows."""
    if not isinstance(samples, VoltageSamples):
        raise DomainError(f"expected a VoltageSamples batch, got {type(samples).__name__}")
    m = len(samples)
    if m < 1:
        raise DomainError("empty sample set")
    eps = samples.eps
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is refused below
        sigma = eps.T @ eps / m
    _refuse_non_finite_moment(sigma, samples.nodes)
    return MomentSet(nodes=samples.nodes, sigma_eps=sigma, m=m)


def _refuse_non_finite_moment(sigma: np.ndarray, nodes) -> None:
    """A DomainError naming the first pair of ``nodes`` whose entry of the
    moment matrix ``sigma`` is not finite."""
    finite = np.isfinite(sigma)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DomainError(f"moment entry of nodes ({nodes[i]}, {nodes[j]}) is not finite")


def _sigma_sq_diff(sigma: np.ndarray, i: int, j: int) -> float:
    """sigma_ii - 2 sigma_ij + sigma_jj: E[(eps_i - eps_j)^2] read from the
    second moments ``sigma`` of two deviations."""
    return float(sigma[i, i] - 2.0 * sigma[i, j] + sigma[j, j])


# -- infinite-sample moments in edge coordinates ---------------------------------
#
# With D the subtree indicator (row e marks the loads below line e), the
# drops are delta = R D p + X D q and eps = D^T delta.  The covariances are
# zero across the blocks the model's covariance components define, so a
# second moment there is the product of the means, and the sweeps of the
# second moments run one block at a time, on the level plan of the block's
# loads.


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


def _injection_sums(plan: _LevelPlan, mod: InjectionModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D S D^T over one block for S = sigma_p, sigma_q and sigma_pq^T: the
    second moments of the injections summed below each pair of lines."""
    loads = plan.canon
    n = len(loads)
    w = np.zeros((n + 1, 3 * n))
    for k in range(3):
        w[:n, k * n:(k + 1) * n] = mod.block(k, loads, loads)
    _subtree_sums(plan, w)  # D S, side by side
    dw = np.zeros_like(w)
    np.concatenate([w[:n, k * n:(k + 1) * n].T for k in range(3)], axis=1, out=dw[:n])
    _subtree_sums(plan, dw)  # D (D S)^T
    return dw[:n, :n], dw[:n, n:2 * n], dw[:n, 2 * n:]


def _drop_moments(sums, r, x) -> np.ndarray:
    """E[delta delta^T] over one block's lines, delta = r P + x Q."""
    gp, gq, gqp = sums
    return np.outer(r, r) * gp + np.outer(x, x) * gq + np.outer(r, x) * gqp.T + np.outer(x, r) * gqp


class LineDrops:
    """The line-drop and voltage moments of an analytic ``MomentSet``.

    Per block of trees: M = E[delta delta^T] over its lines and the voltage
    moments, in the rows of the block's level plan, and the plan's parent
    rows; for every load its mean deviation.  A voltage moment across two
    blocks is the product of the two means, so ``sigma_eps`` is rebuilt from
    these alone (np.outer of the means, with the blocks scattered in), and
    only when it is read.  ``sq_diff`` reads E[(eps_a - eps_b)^2] from them:
    for a tree line one entry of M, to a few ulps; for any other pair a sum
    in which the mean terms cancel, to about 1e-13 relative on 1000-load
    feeders.  ``variant`` names the linear model whose line impedances
    weighted the drops.
    """

    def __init__(self, variant: str, plans: list[_LevelPlan], moments: list[np.ndarray],
                 voltage: list[np.ndarray], mean: np.ndarray):
        self.variant = variant
        n = len(mean)
        block = np.empty(n, dtype=np.intp)
        local = np.empty(n, dtype=np.intp)
        self.diagonal = np.empty(n)  # of sigma_eps, in canonical load order
        # Lists of ints for the path walk: per block, each row's parent row,
        # with the plan's -1 for a substation, which sorts below every load.
        self._parents = []
        self._loads = [plan.canon for plan in plans]
        for k, (plan, v) in enumerate(zip(plans, voltage)):
            block[plan.canon] = k
            local[plan.canon] = np.arange(len(plan.canon))
            self.diagonal[plan.canon] = v.diagonal()
            self._parents.append(np.concatenate(plan.parents).tolist())
        self._block, self._local = block.tolist(), local.tolist()
        self._moments, self._voltage, self._mean = moments, voltage, mean
        self._diagonals, self._means = self.diagonal.tolist(), mean.tolist()

    def sigma_eps(self) -> np.ndarray:
        """The voltage moments of every pair of loads, as a new N x N array."""
        out = np.outer(self._mean, self._mean)
        for loads, v in zip(self._loads, self._voltage):
            out[np.ix_(loads, loads)] = v
        return out

    @property
    def finite(self) -> bool:
        """Whether every entry of ``sigma_eps`` is finite: each block's are
        (a NaN or infinity reaches its min or max), and no product of two
        means overflows."""
        top = float(np.abs(self._mean).max(initial=0.0))
        extremes = [float(extreme(v)) for v in self._voltage for extreme in (np.min, np.max)]
        return math.isfinite(top * top) and all(map(math.isfinite, extremes))

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
            return self._diagonals[i] - 2.0 * (self._means[i] * self._means[j]) + self._diagonals[j]
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


def analytic_moment_set(forest: ForestConfig, model: InjectionModel, variant: str = "lc") -> MomentSet:
    """Exact voltage moments of the linear model, D^T E[delta delta^T] D for
    the line drops delta of the variant's effective impedances, with the
    line drops that answer the learner's pair statistic.

    An entry across two blocks is the product of the two means; a block's
    own entries are the path sums of its drop moments."""
    mod = model.aligned_to(forest.grid.load_ids)
    impedance = _impedance(variant)
    plans = _block_plans(forest, mod)
    lines = [impedance(plan.r[:, 0], plan.x[:, 0]) for plan in plans]

    mean = np.empty(forest.grid.n_loads)
    mu = np.stack([mod.mu_p, mod.mu_q])
    for plan, (r, x) in zip(plans, lines):
        below = _subtree_sums(plan, _rows(plan, mu))[:-1]
        mean[plan.canon] = _root_path_sums(plan, _outside_row(r * below[:, 0] + x * below[:, 1]))[:-1]

    moments = [_drop_moments(_injection_sums(plan, mod), r, x) for plan, (r, x) in zip(plans, lines)]
    voltage = [_path_sums(plan, block) for plan, block in zip(plans, moments)]
    return MomentSet(nodes=forest.grid.load_ids, drops=LineDrops(variant, plans, moments, voltage, mean))


def assumption1_violations(forest: ForestConfig, model: InjectionModel) -> list[tuple[int, int, str]]:
    """Same-tree node pairs whose non-central moments are not strictly
    positive, as (node_a, node_b, matrix-name) triples, in row-major order
    of (a, b) and then of the matrices; empty when the positivity
    assumption holds.  The model's blocks are read one tree at a time."""
    mod = model.aligned_to(forest.grid.load_ids)
    found = []
    for loads in _trees(forest.load_tree_index):
        sp, sq, spq = (mod.block(k, loads, loads) for k in range(3))
        bad = np.stack([sp <= 0, sq <= 0, (spq <= 0) | (spq.T <= 0)], axis=-1)
        bad &= np.triu(np.ones((len(loads), len(loads)), dtype=bool))[:, :, None]
        found += [(loads[i], loads[j], k) for i, j, k in zip(*np.nonzero(bad))]
    nodes = mod.nodes
    return [(nodes[i], nodes[j], _SIGMA_NAMES[k]) for i, j, k in sorted(found)]


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


_DEFAULT_MODEL_KEYS = ("kind", "mu_p", "sigma_ratio", "rho", "q_alpha", "q_noise_ratio")
_EXPLICIT_MODEL_KEYS = ("kind", "nodes", "mu_p", "mu_q", "sigma_p", "sigma_q", "sigma_pq", "distribution")
_is_vector = _list_of(_is_number)


def _is_matrix(value) -> bool:
    """A list of equal-length lists of numbers."""
    return _list_of(_is_vector)(value) and len({len(row) for row in value}) <= 1


def model_from_dict(doc: dict, forest: ForestConfig | None = None) -> InjectionModel:
    """Build a model from its JSON form: either {"kind": "default", ...}
    with the parametric constants (requires a forest) or an explicit
    {"kind": "explicit", nodes, means, moment matrices} document.

    A mis-typed value, a missing array or a key the model's kind does not
    take raises ParseError naming the key.  Injections are Gaussian; an
    explicit document may say so with ``"distribution": "gaussian"``."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {doc!r}", "model")
    kind = _entry(doc, "kind", "model", lambda k: k in ("default", "explicit"), "'default' or 'explicit'",
                  "default")
    if kind == "default":
        _known_keys(doc, _DEFAULT_MODEL_KEYS, "model", "a default model")
        params = {key: _entry(doc, key, "model", _is_finite, "a finite number")
                  for key in doc if key != "kind"}
        if forest is None:
            raise DomainError("a forest is required to derive the default model")
        return default_model(forest, **params)
    _known_keys(doc, _EXPLICIT_MODEL_KEYS, "model", "an explicit model")
    _entry(doc, "distribution", "model", lambda d: d == "gaussian", "'gaussian'", "gaussian")
    matrix = "a list of equal-length lists of numbers"
    return InjectionModel(
        nodes=tuple(_entry(doc, "nodes", "model", _list_of(_is_index), "a list of integer node ids")),
        mu_p=_entry(doc, "mu_p", "model", _is_vector, "a list of numbers"),
        mu_q=_entry(doc, "mu_q", "model", _is_vector, "a list of numbers"),
        sigma_p=_entry(doc, "sigma_p", "model", _is_matrix, matrix),
        sigma_q=_entry(doc, "sigma_q", "model", _is_matrix, matrix),
        sigma_pq=_entry(doc, "sigma_pq", "model", _is_matrix, matrix),
    )
