"""Exact reference implementations of causal softmax attention and the
quantized-key attention family (quadratic, linear-state, chunk-recurrent),
the online form over a dictionary it grows itself (the whole streaming
engine), plus a running sum-state linear attention baseline.

Everything here is written for 64-bit exactness and clarity first.
These functions are the oracles the streaming engine is checked against.
All operations are pure; nothing holds mutable state between calls.

Softmax attention and the quadratic form share one causal mixing routine
that scores queries in tiles of 64 rows. The linear-state form reads its
per-centroid counts and value sums in blocks of the same 64 rows, and the
key-to-centroid assignment scores keys in tiles of the same 64 rows. None
of them runs a product whose shape depends on the sequence length: a
partial last tile is zero-padded to its full shape, so appending tokens
leaves earlier assignments and output rows bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvalidStateError

UNIT_NORM_ATOL = 1e-6
BASELINE_EPS = 1e-9
_QUERY_TILE = 64  # query rows per tile of the causal mix and per linear-form block


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def check_unit_rows(m: np.ndarray, name: str) -> None:
    """Every row of the [n, d] matrix ``m`` must have norm within
    UNIT_NORM_ATOL of 1; a NaN or infinite norm fails too."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
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
    """Key centroids, as ``vq_attention_quadratic`` takes them; it
    converts and checks them."""

    means_k: np.ndarray  # [N, d]

    @classmethod
    def from_keys(cls, means_k) -> "Dictionary":
        return cls(means_k)


@dataclass(frozen=True)
class AttentionOutput:
    """Mixer output, one row per input position. Each row is a convex
    combination of the value rows visible to it."""

    o: np.ndarray


def softmax_attention(seq: HeadSequence) -> AttentionOutput:
    """Causal softmax attention: row t mixes v[0..t] with weights
    softmax(beta * q[t] . k[i])."""
    return AttentionOutput(_causal_weighted_mix(seq.q, seq.k, seq.v, seq.beta))


def quantize_keys(k, dict_k) -> np.ndarray:
    """Each key row's highest-dot-product row of the [N, d] key dictionary
    ``dict_k``, as [T] indices.

    Ties go to the lowest centroid index. Dot product is the right
    similarity here because keys and centroids are unit norm, so argmax
    dot == argmin L2. Every quantized-key form takes its assignments from
    here, and the forms that need the quantized keys gather
    ``dict_k[assignments]`` themselves. Keys are scored in tiles of
    B = _QUERY_TILE rows, each one [B, N] product; only a partial last
    tile is copied, zero-padded to B rows whose indices are dropped. So
    working memory is O(B N), never O(T N), and a key's index does not
    depend on how many keys follow it.
    """
    k = _as_f64(k)
    dict_k = _key_dictionary(dict_k, k.shape[1])
    t_total, b = k.shape[0], _QUERY_TILE
    assignments = np.empty(t_total, dtype=np.intp)
    for start in range(0, t_total, b):
        tile = k[start : start + b]
        m = len(tile)
        if m < b:
            tile = np.pad(tile, ((0, b - m), (0, 0)))
        assignments[start : start + m] = np.argmax(tile @ dict_k.T, axis=1)[:m]
    return assignments


def quantized_state(k, v, dict_k) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-dictionary state after a stream of keys ``k`` and values
    ``v``: per centroid of ``dict_k``, the number of keys that snapped to
    it and the mean of their values (0 where no key arrived). Values are
    summed one at a time in position order, so this is bitwise the state
    a token-by-token stream ends with."""
    assignments = quantize_keys(k, dict_k)
    n = np.shape(dict_k)[0]
    counts = np.bincount(assignments, minlength=n)
    sums = np.zeros((n, np.shape(v)[1]))
    np.add.at(sums, assignments, v)
    means_v = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means_v, where=counts[:, None] > 0)
    return counts, means_v


def _key_dictionary(dict_k, d: int) -> np.ndarray:
    """The key centroids as float64, checked to be non-empty and d wide."""
    dict_k = _as_f64(dict_k)
    if dict_k.ndim != 2 or dict_k.shape[1] != d:
        raise ConfigurationError(f"key dictionary must be [N, {d}], got {dict_k.shape}")
    if dict_k.shape[0] < 1:
        raise InvalidStateError("empty key dictionary")
    return dict_k


def _causal_weighted_mix(q, keys, values, beta) -> np.ndarray:
    # Queries in tiles of B = _QUERY_TILE rows. Tile i scores its rows against
    # keys[:(i+1)B], sets the columns after each row's position to -inf and
    # mixes values[:(i+1)B], so every product it runs has a shape fixed by
    # the tile index alone. A partial last tile is zero-padded to that full
    # shape: its padded key columns are masked and its padded query rows are
    # dropped. BLAS results can depend on operand shapes, and none of these
    # depends on T, so appending tokens leaves earlier rows bitwise unchanged.
    t_total, b = q.shape[0], _QUERY_TILE
    pad = -t_total % b
    if pad:
        q, keys, values = (np.pad(a, ((0, pad), (0, 0))) for a in (q, keys, values))
    after_position = np.triu(np.ones((b, b), dtype=bool), k=1)
    out = np.empty((t_total + pad, values.shape[1]))
    for start in range(0, t_total, b):
        stop = start + b
        w = q[start:stop] @ keys[:stop].T
        w *= beta
        w[:, start:][after_position] = -np.inf
        # |beta q.k| <= beta is finite, so a difference that overflows is
        # below -1.7e308: -inf, and exp gives 0, its true double weight.
        with np.errstate(over="ignore"):
            w -= np.max(w, axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= np.sum(w, axis=1, keepdims=True)
        out[start:stop] = w @ values[:stop]
    return out[:t_total]


def vq_attention_quadratic(seq: HeadSequence, dictionary: Dictionary) -> AttentionOutput:
    """Causal attention over quantized keys, materializing the full T x T
    score matrix. Values stay raw; only keys are snapped to centroids."""
    dict_k = _key_dictionary(dictionary.means_k, seq.d)
    k_hat = dict_k[quantize_keys(seq.k, dict_k)]
    return AttentionOutput(_causal_weighted_mix(seq.q, k_hat, seq.v, seq.beta))


def vq_attention_linear(seq: HeadSequence, dict_k) -> AttentionOutput:
    """Constant-state form of quantized-key attention.

    The state is one count and one value sum per centroid. Row t reads it
    as o_t = sum_i w_ti S_i / sum_i w_ti C_i, where C_i and S_i count and
    sum the values of the keys at positions <= t that snapped to centroid
    i, and w_ti = exp(beta * q_t . D_k[i] - row max). Only centroids with
    C_i > 0 enter, the row max included, so a centroid no key has reached
    yet gets weight exactly 0. This is softmax(beta * q . D_k^T + log
    counts) times the value means, without forming either.

    Queries go in blocks of B = _QUERY_TILE rows, each read as the state at
    the block start plus the block's own tokens: the counts add a cumsum
    of one-hot rows, and the value sums add one causal [B, B] matrix of
    each row's weights on the earlier-or-same tokens' centroids times the
    block's values. A partial last block is zero-padded to B rows, whose
    outputs are dropped and whose tokens count nowhere, so no product's
    shape depends on T and appending tokens leaves earlier rows bitwise
    unchanged. Besides the [T] assignments and the [T, d] outputs, working
    memory is O(B n + n d), never O(T). After each block
    the state takes its tokens one at a time in position order, so the
    counts and value sums are bitwise those of a token-by-token stream;
    ``quantized_state`` builds the final one alone.
    """
    dict_k = _key_dictionary(dict_k, seq.d)
    n, b, t_total = dict_k.shape[0], _QUERY_TILE, seq.T
    assignments = quantize_keys(seq.k, dict_k)

    counts = np.zeros(n, dtype=np.int64)
    value_sums = np.zeros((n, seq.d))
    earlier_or_same = np.tri(b)
    rows = np.arange(b)
    out = np.empty((t_total, seq.d))
    for start in range(0, t_total, b):
        stop = start + b
        block = assignments[start:stop], seq.q[start:stop], seq.v[start:stop]
        m = len(block[0])  # the block's real tokens
        if m < b:
            # Padded tokens take centroid 0, but they sit after every real
            # row, so the causal mask drops them; they never reach the state.
            block = [np.pad(x, [(0, b - m)] + [(0, 0)] * (x.ndim - 1)) for x in block]
        a, q, v = block
        one_hot = np.zeros((b, n), dtype=np.int64)
        one_hot[rows[:m], a[:m]] = 1
        seen = counts + np.cumsum(one_hot, axis=0)
        w = q @ dict_k.T
        w *= seq.beta
        w[seen == 0] = -np.inf
        # |beta q.D| <= beta is finite, so a difference that overflows is
        # below -1.7e308: -inf, and exp gives 0, its true double weight.
        with np.errstate(over="ignore"):
            w -= np.max(w, axis=1, keepdims=True)
        np.exp(w, out=w)
        in_block = w[:, a] * earlier_or_same
        sums = w @ value_sums + in_block @ v
        out[start:stop] = (sums / np.einsum("bn,bn->b", w, seen)[:, None])[:m]
        np.add.at(counts, a[:m], 1)
        np.add.at(value_sums, a[:m], v[:m])
    return AttentionOutput(out)


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
    dict_k = _key_dictionary(dict_k, seq.d)
    assignments = quantize_keys(seq.k, dict_k)
    k_hat = dict_k[assignments]
    n = dict_k.shape[0]

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


class StreamTranscript(NamedTuple):
    """``vq_attention_online``'s [T, d] outputs, final dictionary (counts,
    key rows and value rows of its n_active centroids) and, per chunk, each
    token's centroid, the seed positions and each token's rate (1.0 for a
    seed)."""

    o: np.ndarray
    counts: np.ndarray
    means_k: np.ndarray
    means_v: np.ndarray
    assignments: list
    seeds: list
    rates: list


def vq_attention_online(seq: HeadSequence, config) -> StreamTranscript:
    """Online VQ attention from an empty dictionary: the streaming algorithm
    in float64, token by token wherever order matters, reading ``config``
    by attribute. Chunk c = 1, 2, ... of chunk_len tokens is predicted by
    one masked_softmax over [beta q.D_k + log counts | causal beta q.k],
    then absorbed. Its seed budget is the growth of floor(t N / (t + N))
    over the chunk, or round(N / planned_chunks) under linear_growth until
    N is reached; at least 1 into an empty dictionary. Under random_assign
    the seeds are a draw seeded by [seed, c]; into an empty dictionary they
    are position 0, then greedily the token least similar to the seeds so
    far; otherwise the tokens least similar to the dictionary. Seeds become
    rows with count 1, every other token joins its most similar row (a
    seed, if the dictionary was empty), and each row's count grows by the m
    tokens it got. Then, token by token in chunk order, the row moves by
    rate * (x - its pre-merge value), where rate is 1 / count, or
    constant_lr_rate / m under constant_lr. Ties go to the lower position
    or row. The sequence's beta must be the config's.
    """
    if seq.beta != config.beta:
        raise ConfigurationError(
            f"sequence beta {seq.beta} differs from config beta {config.beta}"
        )
    n_max, chunk_len, beta = config.n_max, config.chunk_len, config.beta
    planned = config.planned_chunks or -(-seq.T // chunk_len)
    constant = config.ablation == "constant_lr"
    counts, n = np.zeros(n_max, dtype=np.int64), 0
    means_k, means_v = np.zeros((n_max, seq.d)), np.zeros((n_max, seq.d))
    out, trail = np.empty((seq.T, seq.d)), ([], [], [])
    for c, start in enumerate(range(0, seq.T, chunk_len), start=1):
        q, k, v = (a[start : start + chunk_len] for a in (seq.q, seq.k, seq.v))
        lc = len(k)
        dict_logits = beta * (q @ means_k[:n].T) + np.log(counts[:n])
        chunk_logits = np.where(np.tri(lc, dtype=bool), beta * (q @ k.T), -np.inf)
        weights = masked_softmax(np.concatenate([dict_logits, chunk_logits], axis=1))
        out[start : start + lc] = weights @ np.concatenate([means_v[:n], v])

        if config.ablation == "linear_growth":
            per = int(round(n_max / planned))
            budget = min(per * c, n_max) - min(per * (c - 1), n_max)
        else:
            t = start + lc
            budget = t * n_max // (t + n_max) - start * n_max // (start + n_max)
        if n == 0 and budget == 0:
            budget = 1
        budget = min(budget, lc, n_max - n)

        if budget == 0:
            seeds = []
        elif config.ablation == "random_assign":
            rng = np.random.default_rng([config.seed, c])
            seeds = sorted(rng.choice(lc, size=budget, replace=False).tolist())
        elif n == 0:
            seeds, best = [0], k @ k[0]
            while len(seeds) < budget:
                pick = min((j for j in range(lc) if j not in seeds), key=lambda j: best[j])
                seeds.append(pick)
                best = np.maximum(best, k @ k[pick])
            seeds.sort()
        else:
            best = [np.max(means_k[:n] @ k[j]) for j in range(lc)]
            seeds = sorted(sorted(range(lc), key=lambda j: best[j])[:budget])

        homes = means_k[:n] if n else k[seeds]
        assign = np.array(
            [n + seeds.index(j) if j in seeds else np.argmax(homes @ k[j]) for j in range(lc)]
        )
        for j in seeds:
            means_k[assign[j]], means_v[assign[j]], counts[assign[j]] = k[j], v[j], 1
        n += len(seeds)

        merging = [j for j in range(lc) if j not in seeds]
        got = np.bincount(assign[merging], minlength=n)
        counts[:n] += got
        pre_k, pre_v = means_k[:n].copy(), means_v[:n].copy()
        rates = np.ones(lc)
        for j in merging:
            a = assign[j]
            rates[j] = config.constant_lr_rate / got[a] if constant else 1.0 / counts[a]
            means_k[a] += (k[j] - pre_k[a]) * rates[j]
            means_v[a] += (v[j] - pre_v[a]) * rates[j]
        for steps, step in zip(trail, (assign, np.array(seeds, dtype=np.int64), rates)):
            steps.append(step)

    return StreamTranscript(out, counts[:n].copy(), means_k[:n].copy(), means_v[:n].copy(), *trail)


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
