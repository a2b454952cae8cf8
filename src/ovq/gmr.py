"""Batch Gaussian-mixture machinery over joint [key, value] points.

Fits and probes mixtures with a shared isotropic precision: responsibility
and re-estimation steps, squared-distance-weighted seeding, the negative
log likelihood with its normalizer, and the mixture-readout prediction.
A precision of ``math.inf`` switches to hard one-hot assignment, which is
exactly a batch k-means step; closed-form cross-checks for that identity
and for the kernel-regression view of attention live here too. Each
check returns its largest deviation as a float; the kernel-regression
check scores queries in tiles of 64 rows against 64-row key tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateComponentError
from .reference import HeadSequence, masked_softmax, softmax_attention

INFINITE = math.inf

PRIOR_ATOL = 1e-12
_TILE = 64  # query and key rows per tile of the kernel-regression check


@dataclass(frozen=True)
class GaussianMixture:
    """Component means over concatenated [key, value] space, mixing priors,
    and one shared isotropic precision. ``beta == math.inf`` marks hard
    assignment mode."""

    means_joint: np.ndarray  # [N, 2d]
    priors: np.ndarray       # [N], sums to 1
    beta: float

    def __post_init__(self):
        object.__setattr__(
            self, "means_joint", np.ascontiguousarray(self.means_joint, dtype=np.float64)
        )
        object.__setattr__(self, "priors", np.asarray(self.priors, dtype=np.float64))
        if self.means_joint.ndim != 2 or self.means_joint.shape[1] % 2 != 0:
            raise ConfigurationError("means_joint must be [N, 2d]")
        if self.priors.shape != (self.n,):
            raise ConfigurationError("one prior per component required")
        if np.any(self.priors < 0):
            raise ConfigurationError("priors must be nonnegative")
        if abs(float(np.sum(self.priors)) - 1.0) > PRIOR_ATOL:
            raise ConfigurationError("priors must sum to 1")
        if not (self.beta > 0):
            raise ConfigurationError("beta must be positive or math.inf")

    @property
    def n(self) -> int:
        return self.means_joint.shape[0]

    @property
    def d(self) -> int:
        return self.means_joint.shape[1] // 2

    @property
    def hard(self) -> bool:
        return math.isinf(self.beta)

    @property
    def means_k(self) -> np.ndarray:
        return self.means_joint[:, : self.d]

    @property
    def means_v(self) -> np.ndarray:
        return self.means_joint[:, self.d :]


def _sq_dists(data: np.ndarray, means: np.ndarray) -> np.ndarray:
    diff = data[:, None, :] - means[None, :, :]
    return np.sum(diff * diff, axis=-1)


def e_step(mix: GaussianMixture, data_joint: np.ndarray) -> np.ndarray:
    """Posterior component weights for each point, as a row-stochastic
    [T, N] array.

    Soft mode: z[t, n] proportional to prior_n * exp(-(beta/2) * squared
    distance), the exact posterior under the shared covariance I / beta,
    normalized per row by ``masked_softmax``. Hard mode: one-hot at the
    nearest component, ties to the lowest index.
    """
    data_joint = np.asarray(data_joint, dtype=np.float64)
    d2 = _sq_dists(data_joint, mix.means_joint)
    if mix.hard:
        z = np.zeros_like(d2)
        z[np.arange(len(d2)), np.argmin(d2, axis=1)] = 1.0
        return z
    return masked_softmax(np.log(mix.priors)[None, :] - 0.5 * mix.beta * d2)


def _cluster_means(data: np.ndarray, member_masks) -> np.ndarray:
    # Shared deterministic reduction: sum the member rows in index order,
    # then divide. Both the hard re-estimation step and the k-means step
    # go through the same arithmetic so they agree bitwise.
    means = np.empty((len(member_masks), data.shape[1]))
    for n, mask in enumerate(member_masks):
        means[n] = np.sum(data[mask], axis=0) / np.count_nonzero(mask)
    return means


def m_step(data_joint: np.ndarray, z: np.ndarray, beta: float) -> GaussianMixture:
    """Re-estimate means and priors from the [T, N] weights ``z``. At
    ``beta == math.inf`` the rows are read as one-hot and each mean is its
    members' arithmetic mean, exactly a batch k-means step.

    Any component with zero total responsibility is an error, not a silent
    re-seed; the streaming engine's growth schedule is the mechanism for
    allocating components, and the oracle should surface emptiness.
    """
    data_joint = np.asarray(data_joint, dtype=np.float64)
    gamma = np.sum(z, axis=0)
    dead = np.flatnonzero(gamma == 0)
    if len(dead):
        raise DegenerateComponentError(dead)
    if beta == INFINITE:
        assignments = np.argmax(z, axis=1)
        means = _cluster_means(data_joint, [assignments == n for n in range(z.shape[1])])
    else:
        means = (z.T @ data_joint) / gamma[:, None]
    return GaussianMixture(means, gamma / np.sum(gamma), beta)


def batch_kmeans_step(
    data_joint: np.ndarray, assignments: np.ndarray, n_components: int
) -> np.ndarray:
    """One batch k-means re-estimation: each mean becomes the arithmetic
    mean of its assigned points. Empty clusters are an error."""
    data_joint = np.asarray(data_joint, dtype=np.float64)
    assignments = np.asarray(assignments)
    masks = [assignments == n for n in range(n_components)]
    dead = [n for n, m in enumerate(masks) if not np.any(m)]
    if dead:
        raise DegenerateComponentError(dead)
    return _cluster_means(data_joint, masks)


def nll(mix: GaussianMixture, data_joint: np.ndarray) -> float:
    """Negative log likelihood of the data under the mixture, Gaussian
    normalizer included. The normalizer is a constant offset per point at
    fixed beta and dimension, so comparisons are only meaningful between
    mixtures sharing both."""
    if mix.hard:
        raise ConfigurationError("likelihood needs a finite precision")
    data_joint = np.asarray(data_joint, dtype=np.float64)
    dim = data_joint.shape[1]
    log_norm = 0.5 * dim * (math.log(mix.beta) - math.log(2.0 * math.pi))
    logp = np.log(mix.priors)[None, :] + log_norm - 0.5 * mix.beta * _sq_dists(
        data_joint, mix.means_joint
    )
    m = np.max(logp, axis=1, keepdims=True)
    return float(-np.sum(m[:, 0] + np.log(np.sum(np.exp(logp - m), axis=1))))


def kmeanspp_indices(data: np.ndarray, n_components: int, seed: int) -> np.ndarray:
    """Squared-distance-weighted seeding: the first point is uniform, each
    later point is drawn from the rest with probability proportional to its
    squared distance to the nearest point chosen so far."""
    data = np.asarray(data, dtype=np.float64)
    t = data.shape[0]
    if t < n_components:
        raise ConfigurationError(f"need at least {n_components} points, got {t}")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(t))]
    best_d2 = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    for _ in range(n_components - 1):
        weights = best_d2.copy()
        weights[chosen] = 0.0
        total = weights.sum()
        if total == 0.0:
            remaining = np.setdiff1d(np.arange(t), chosen)
            pick = int(rng.choice(remaining))
        else:
            pick = int(rng.choice(t, p=weights / total))
        chosen.append(pick)
        best_d2 = np.minimum(best_d2, np.sum((data - data[pick]) ** 2, axis=1))
    return np.array(chosen, dtype=np.int64)


def init_means_kmeanspp(
    data_joint: np.ndarray, n_components: int, seed: int, beta: float = INFINITE
) -> GaussianMixture:
    """Mixture whose component means are actual data points picked by
    squared-distance-weighted seeding. Priors start uniform."""
    data_joint = np.asarray(data_joint, dtype=np.float64)
    chosen = kmeanspp_indices(data_joint, n_components, seed)
    priors = np.full(n_components, 1.0 / n_components)
    return GaussianMixture(data_joint[chosen], priors, beta)


def em_fit(
    mix: GaussianMixture, data_joint: np.ndarray, n_iters: int
) -> tuple[GaussianMixture, list[float]]:
    """Alternate responsibility and re-estimation steps, recording the
    negative log likelihood before the first step and after every update."""
    trace = [nll(mix, data_joint)]
    for _ in range(n_iters):
        mix = m_step(data_joint, e_step(mix, data_joint), mix.beta)
        trace.append(nll(mix, data_joint))
    return mix, trace


def gmr_predict(
    mix: GaussianMixture, counts: np.ndarray, query: np.ndarray, beta: float
) -> np.ndarray:
    """Conditional-mean readout of the mixture for one unit-norm query.

    Computed as softmax(beta * q . D_k^T + log counts) times the value
    means, where D_k / value means are the two halves of the joint means.
    Components with zero count get weight exactly 0; with every count 0,
    both this and ``gmr_predict_expectation`` raise InvalidStateError. The
    two agree when the key means are unit norm.
    """
    counts = np.asarray(counts, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    populated = counts > 0
    logits = np.full(mix.n, -np.inf)
    logits[populated] = beta * (mix.means_k[populated] @ query) + np.log(counts[populated])
    return masked_softmax(logits[None, :])[0] @ mix.means_v


def gmr_predict_expectation(
    mix: GaussianMixture, counts: np.ndarray, query: np.ndarray, beta: float
) -> np.ndarray:
    """Same prediction through the expectation route: weights proportional
    to count_n * exp(-(beta/2) * ||q - mu_k||^2), squared distances taken
    directly rather than through dot products."""
    counts = np.asarray(counts, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    diff = query[None, :] - mix.means_k
    d2 = np.sum(diff * diff, axis=1)
    populated = counts > 0
    logw = np.full(mix.n, -np.inf)
    logw[populated] = np.log(counts[populated]) - 0.5 * beta * d2[populated]
    return masked_softmax(logw[None, :])[0] @ mix.means_v


def verify_newton_equivalence(
    data_joint: np.ndarray, init_assignments: np.ndarray, seed: int = 0
) -> float:
    """Check that one Newton step on the fixed-assignment squared-error
    objective lands on the cluster mean, returning the largest absolute
    deviation.

    For cluster n with members x and any starting mean mu, the gradient is
    2 * sum(mu - x), the Hessian is 2 * count * I, and mu - H^-1 g is the
    arithmetic mean in closed form. Both sides are evaluated numerically
    from random starting means; an empty cluster has no mean and is
    skipped.
    """
    data_joint = np.asarray(data_joint, dtype=np.float64)
    init_assignments = np.asarray(init_assignments)
    rng = np.random.default_rng(seed)
    n_clusters = int(np.max(init_assignments)) + 1 if len(init_assignments) else 0
    deviations = []
    for n in range(n_clusters):
        members = data_joint[init_assignments == n]
        if len(members) == 0:
            continue
        mu0 = rng.standard_normal(data_joint.shape[1])
        grad = 2.0 * np.sum(mu0[None, :] - members, axis=0)
        newton = mu0 - grad / (2.0 * len(members))
        mean = np.sum(members, axis=0) / len(members)
        deviations.append(np.max(np.abs(newton - mean)))
    return float(np.max(deviations, initial=0.0))


def verify_gkr_attention(seq: HeadSequence) -> float:
    """Check the kernel-regression view of attention, returning the largest
    absolute deviation.

    For each position t the causal Gaussian-kernel estimate, with weights
    exp(-(beta/2) * ||q_t - k_i||^2) over i <= t taken from literal squared
    distances, must match the softmax-attention output. Queries go in tiles
    of B = _TILE rows; a tile's log weights against keys [0, stop) fill one
    [B, stop] buffer, one [B, B] key tile at a time, so no [B, T, d]
    difference block is ever held."""
    reference = softmax_attention(seq).o
    t_total, b = seq.T, _TILE
    after_position = np.triu(np.ones((b, b), dtype=bool), k=1)
    logw_buffer = np.empty(min(b, t_total) * t_total)
    out = np.empty_like(reference)
    for start in range(0, t_total, b):
        stop = min(start + b, t_total)
        q_tile, rows = seq.q[start:stop, None, :], stop - start
        logw = logw_buffer[: rows * stop].reshape(rows, stop)
        for key_start in range(0, stop, b):
            keys = slice(key_start, key_start + b)  # ends at stop on the last tile
            diff = q_tile - seq.k[keys]
            np.einsum("tid,tid->ti", diff, diff, out=logw[:, keys])
        logw *= -0.5 * seq.beta
        logw[:, start:][after_position[:rows, :rows]] = -np.inf
        out[start:stop] = masked_softmax(logw) @ seq.v[:stop]
    return float(np.max(np.abs(out - reference)))
