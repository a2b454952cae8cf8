"""Exact reference implementations of causal softmax attention and the
quantized-key attention family (quadratic, linear-state, chunk-recurrent),
plus a running sum-state linear attention baseline.

Everything here is written for 64-bit exactness and clarity, not speed.
These functions are the oracles the streaming engine is checked against.
All operations are pure; nothing holds mutable state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidStateError

UNIT_NORM_ATOL = 1e-6
BASELINE_EPS = 1e-9


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def check_unit_rows(m: np.ndarray, name: str) -> None:
    """Every row of the [n, d] matrix ``m`` must have norm within
    UNIT_NORM_ATOL of 1; a NaN or infinite norm fails too."""
    norms = np.linalg.norm(m, axis=1)
    good = np.abs(norms - 1.0) <= UNIT_NORM_ATOL
    if not good.all():
        i = int(np.argmin(good))
        raise ConfigurationError(
            f"{name} rows must be finite and unit norm; row {i} has norm {norms[i]:.8f}"
        )


def check_beta(beta: float) -> None:
    """The logit scale must be finite and >= 0; beta = 0 (uniform weights)
    is legal."""
    if not (0.0 <= beta < np.inf):
        raise ConfigurationError(f"beta must be finite and >= 0, got {beta}")


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction. -inf entries get weight
    exactly 0; every row must keep at least one finite entry."""
    m = np.max(logits, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise InvalidStateError("softmax row with no visible column")
    w = np.exp(logits - m)
    return w / np.sum(w, axis=-1, keepdims=True)


@dataclass(frozen=True)
class HeadSequence:
    """One head's inputs for a sequence: unit-norm queries and keys,
    unconstrained values, and the logit scale ``beta``."""

    q: np.ndarray  # [T, d], unit-norm rows
    k: np.ndarray  # [T, d], unit-norm rows
    v: np.ndarray  # [T, d]
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "q", _as_f64(self.q))
        object.__setattr__(self, "k", _as_f64(self.k))
        object.__setattr__(self, "v", _as_f64(self.v))
        if self.q.ndim != 2:
            raise ConfigurationError("q must be a [T, d] matrix")
        if self.q.shape != self.k.shape or self.q.shape != self.v.shape:
            raise ConfigurationError(
                f"q/k/v shape mismatch: {self.q.shape} {self.k.shape} {self.v.shape}"
            )
        if self.T < 1 or self.d < 1:
            raise ConfigurationError("need T >= 1 and d >= 1")
        check_beta(self.beta)
        for name in ("q", "k", "v"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"{name} has non-finite entries")
        check_unit_rows(self.q, "q")
        check_unit_rows(self.k, "k")

    @property
    def T(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class Dictionary:
    """Key centroids; the quantized-key forms rebuild the value side
    themselves."""

    means_k: np.ndarray  # [N, d]

    def __post_init__(self):
        object.__setattr__(self, "means_k", _as_f64(self.means_k))

    @classmethod
    def from_keys(cls, means_k) -> "Dictionary":
        return cls(means_k)

    @property
    def n(self) -> int:
        return self.means_k.shape[0]


@dataclass(frozen=True)
class AttentionOutput:
    """Mixer output, one row per input position. Each row is a convex
    combination of the value rows visible to it."""

    o: np.ndarray


def softmax_attention(seq: HeadSequence) -> AttentionOutput:
    """Causal softmax attention: row t mixes v[0..t] with weights
    softmax(beta * q[t] . k[i])."""
    return AttentionOutput(_causal_weighted_mix(seq.q, seq.k, seq.v, seq.beta))


def quantize_keys(k, dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Replace each key row by its highest-dot-product centroid.

    Returns (quantized keys, assignment indices). Ties go to the lowest
    centroid index. Dot product is the right similarity here because keys
    and centroids are unit norm, so argmax dot == argmin L2.
    """
    k = _as_f64(k)
    dict_k = _key_dictionary(dictionary.means_k, k.shape[1])
    assignments = np.argmax(k @ dict_k.T, axis=1)
    return dict_k[assignments], assignments


def _key_dictionary(dict_k, d: int) -> np.ndarray:
    """The key centroids as float64, checked to be non-empty and d wide."""
    dict_k = _as_f64(dict_k)
    if dict_k.ndim != 2 or dict_k.shape[1] != d:
        raise ConfigurationError(f"key dictionary must be [N, {d}], got {dict_k.shape}")
    if dict_k.shape[0] < 1:
        raise InvalidStateError("empty key dictionary")
    return dict_k


def _causal_weighted_mix(q, keys, values, beta) -> np.ndarray:
    # Row by row over causal prefixes. Every array an output row touches
    # has a shape fixed by its own position, so appending tokens to the
    # sequence leaves earlier rows bitwise unchanged.
    out = np.empty((q.shape[0], values.shape[1]))
    for t in range(q.shape[0]):
        logits = beta * (keys[: t + 1] @ q[t])
        w = np.exp(logits - np.max(logits))
        out[t] = (w / np.sum(w)) @ values[: t + 1]
    return out


def vq_attention_quadratic(seq: HeadSequence, dictionary: Dictionary) -> AttentionOutput:
    """Causal attention over quantized keys, materializing the full T x T
    score matrix. Values stay raw; only keys are snapped to centroids."""
    k_hat, _ = quantize_keys(seq.k, dictionary)
    return AttentionOutput(_causal_weighted_mix(seq.q, k_hat, seq.v, seq.beta))


def vq_attention_linear(
    seq: HeadSequence, dict_k, return_state: bool = False
):
    """Constant-state form of quantized-key attention.

    Streams positions in order. At each step the current value is folded
    into the running value mean of its key's centroid and the centroid
    count is incremented, then the output is read out as
    softmax(beta * q . D_k^T + log(counts)) times the running value means.

    The state is held across steps: counts, value means and log counts,
    and each step rewrites only the assigned centroid's entries. Log
    counts start at -inf, so a centroid no key has reached yet gets weight
    exactly 0 and log(0) is never evaluated. With ``return_state`` the
    (counts, value means) held at the end are also returned, which is how
    the mixture-readout cross-checks grab a shared dictionary state.
    """
    dict_k = _key_dictionary(dict_k, seq.d)
    n = dict_k.shape[0]
    assignments = np.argmax(seq.k @ dict_k.T, axis=1)

    counts = np.zeros(n, dtype=np.int64)
    log_counts = np.full(n, -np.inf)
    value_sums = np.zeros((n, seq.d))
    means_v = np.zeros((n, seq.d))
    out = np.empty((seq.T, seq.d))
    for t in range(seq.T):
        a = assignments[t]
        counts[a] += 1
        log_counts[a] = np.log(counts[a])
        value_sums[a] += seq.v[t]
        means_v[a] = value_sums[a] / counts[a]
        logits = seq.beta * (dict_k @ seq.q[t]) + log_counts
        out[t] = masked_softmax(logits[None, :])[0] @ means_v

    result = AttentionOutput(out)
    if return_state:
        return result, counts, means_v
    return result


def vq_attention_chunked(seq: HeadSequence, dict_k, chunk_len: int) -> AttentionOutput:
    """Chunk-recurrent form of quantized-key attention.

    The sequence is cut into windows of ``chunk_len``. Queries in window c
    see three blocks: the centroid dictionary with counts and value means
    as of the end of window c-2, the quantized keys of window c-1 (fully
    visible), and the quantized keys of window c under a causal mask. The
    combined softmax reproduces the quadratic form exactly. A short final
    window is processed as-is, without padding.

    One dictionary state trails the predicted window by two. At the start
    of window c >= 2 it folds in window c-2 and refreshes the log counts
    and value means of only the centroids that window reached; the others
    keep log count -inf (weight exactly 0) and value mean 0.
    """
    if chunk_len < 1:
        raise ConfigurationError(f"chunk_len must be >= 1, got {chunk_len}")
    dictionary = Dictionary(dict_k)
    k_hat, assignments = quantize_keys(seq.k, dictionary)
    dict_k, n = dictionary.means_k, dictionary.n

    out = np.empty((seq.T, seq.d))
    # Dictionary state as of the end of window c-2.
    counts = np.zeros(n, dtype=np.int64)
    value_sums = np.zeros((n, seq.d))
    log_counts = np.full(n, -np.inf)
    means_v = np.zeros((n, seq.d))

    for start in range(0, seq.T, chunk_len):
        stop = min(start + chunk_len, seq.T)
        prev = max(start - chunk_len, 0)  # window c-1 is [prev, start)
        if start >= 2 * chunk_len:
            folded = slice(prev - chunk_len, prev)  # window c-2
            # A repeated index rewrites its row with the same value.
            touched = assignments[folded]
            np.add.at(counts, touched, 1)
            np.add.at(value_sums, touched, seq.v[folded])
            log_counts[touched] = np.log(counts[touched])
            means_v[touched] = value_sums[touched] / counts[touched, None]

        q_c = seq.q[start:stop]
        intra = seq.beta * (q_c @ k_hat[start:stop].T)
        local = np.arange(stop - start)
        intra[local[:, None] < local[None, :]] = -np.inf
        logits = np.concatenate(
            [
                seq.beta * (q_c @ dict_k.T) + log_counts,
                seq.beta * (q_c @ k_hat[prev:start].T),
                intra,
            ],
            axis=1,
        )
        values = np.concatenate([means_v, seq.v[prev:start], seq.v[start:stop]], axis=0)
        out[start:stop] = masked_softmax(logits) @ values

    return AttentionOutput(out)


def linear_attention_baseline(seq: HeadSequence) -> AttentionOutput:
    """Sum-state linear attention: S accumulates k^T v outer products and
    z accumulates keys; each output is q S / (q . z + eps). Used purely as
    a degradation baseline in the benchmarks."""
    s = np.zeros((seq.d, seq.d))
    z = np.zeros(seq.d)
    out = np.empty((seq.T, seq.d))
    for t in range(seq.T):
        s += np.outer(seq.k[t], seq.v[t])
        z += seq.k[t]
        out[t] = (seq.q[t] @ s) / (seq.q[t] @ z + BASELINE_EPS)
    return AttentionOutput(out)
