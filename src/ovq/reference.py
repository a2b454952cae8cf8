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
leaves earlier assignments and output rows bitwise unchanged. The
chunk-recurrent form runs equally shaped windows in groups of up to 64
query rows: each of its products is one stacked matmul per group, which
makes one BLAS call per window with that window's own shapes, so its
outputs are bitwise those of a window-at-a-time loop. It scales, masks
and normalises a group's logits in one buffer, in place. Every form
refuses a key dictionary with a non-finite row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvalidStateError

UNIT_NORM_ATOL = 1e-6
# The largest norm a stored key row may have. Running means of unit keys
# stay within rounding of norm 1; predict's static logit shift and the
# snapshot check both read this bound.
KEY_ROW_NORM_MAX = 1.0 + 1e-3
BASELINE_EPS = 1e-9
_QUERY_TILE = 64  # query rows per tile of the causal mix and per linear-form block
# The chunked form's stacked value buffer holds at most this many bytes,
# or one window's values where those alone are larger.
_GROUP_VALUE_BYTES = 2**20


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def check_unit_rows(m: np.ndarray, name: str) -> None:
    """Every row of the [n, d] matrix ``m`` must have norm within
    UNIT_NORM_ATOL of 1; a NaN or infinite norm fails too. Norms are taken
    in float64, without a float64 copy of float32 rows."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m, dtype=np.float64))
    if not np.abs(norms - 1.0).max(initial=0.0) <= UNIT_NORM_ATOL:  # NaN is the max
        i = int(np.argmin(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))
        raise ConfigurationError(
            f"{name} rows must be finite and unit norm; row {i} has norm {norms[i]:.8f}"
        )


def check_beta(beta: float, dtype=np.float64) -> None:
    """The logit scale must be finite and >= 0; beta = 0 (uniform weights)
    is legal. beta times a unit-row dot product, which the norm tolerance
    lets reach (1 + UNIT_NORM_ATOL)**2, must stay finite in ``dtype``."""
    if not (0.0 <= beta < np.inf):
        raise ConfigurationError(f"beta must be finite and >= 0, got {beta}")
    largest = float(np.finfo(dtype).max) / (1.0 + UNIT_NORM_ATOL) ** 2
    if beta > largest:
        raise ConfigurationError(
            f"beta {beta:g} is too large for {np.dtype(dtype)}: "
            f"beta * q.k overflows above {largest:.6g}"
        )


def checked_int(name: str, value, low: int, high: int) -> int:
    """``value`` as a Python int in [low, high]; anything else is a
    ConfigurationError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_head_rows(q, k, v, what: str) -> bool:
    """The row rule for one head's [L, d] queries, keys and values, each
    named by its letter and ``what``: q and k rows finite and unit norm
    (``check_unit_rows``), v finite; an error names the first bad row. q may
    be None, and is checked only where it differs from k. Returns whether q
    equals k."""
    same = q is not None and np.array_equal(q, k)
    if q is not None and not same:
        check_unit_rows(q, f"q{what}")
    check_unit_rows(k, f"k{what}")
    finite = np.isfinite(v)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ConfigurationError(f"v{what} has non-finite entries in row {row}")
    return same


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction. -inf entries get weight
    exactly 0; every row must keep at least one finite entry."""
    m = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise InvalidStateError("softmax row with no visible column")
    w = logits - m
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


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
        check_head_rows(self.q, self.k, self.v, "")

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
        tile = _padded_rows(k, start, start + b)
        assignments[start : start + b] = np.argmax(tile @ dict_k.T, axis=1)[: t_total - start]
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
    _add_rows(sums, assignments, v)
    means_v = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means_v, where=counts[:, None] > 0)
    return counts, means_v


def _add_rows(sums: np.ndarray, index, rows) -> None:
    """sums[index] += rows with repeats accumulating, each element taking
    its additions in row order: 1-D ``np.add.at`` calls on the flat view of
    the C-contiguous ``sums``, numpy's fast path, where the row form is not.
    The flat indices are built for B = _QUERY_TILE rows at a time, so they
    never take O(T d) memory."""
    d = sums.shape[1]
    flat_sums, cols, rows = sums.reshape(-1), np.arange(d), np.asarray(rows, dtype=sums.dtype)
    for start in range(0, len(index), _QUERY_TILE):
        block = slice(start, start + _QUERY_TILE)
        np.add.at(flat_sums, (index[block, None] * d + cols).ravel(), rows[block].ravel())


def _padded_rows(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of ``a``: a view, or a zero-padded copy when ``a``
    ends first."""
    if stop <= len(a):
        return a[start:stop]
    out = np.zeros((stop - start,) + a.shape[1:], dtype=a.dtype)
    out[: len(a) - start] = a[start:]
    return out


def _key_dictionary(dict_k, d: int) -> np.ndarray:
    """The key centroids as float64, checked to be non-empty, d wide and
    finite. A NaN row would take every key, since np.argmax returns the
    first NaN."""
    dict_k = _as_f64(dict_k)
    if dict_k.ndim != 2 or dict_k.shape[1] != d:
        raise ConfigurationError(f"key dictionary must be [N, {d}], got {dict_k.shape}")
    if dict_k.shape[0] < 1:
        raise InvalidStateError("empty key dictionary")
    finite = np.isfinite(dict_k).all(axis=1)
    if not finite.all():
        raise ConfigurationError(
            f"key dictionary rows must be finite; row {int(np.argmin(finite))} is not"
        )
    return dict_k


def _causal_weighted_mix(q, keys, values, beta) -> np.ndarray:
    # Queries in tiles of B = _QUERY_TILE rows. Tile i scores its rows against
    # keys[:(i+1)B], sets the columns after each row's position to -inf and
    # mixes values[:(i+1)B], so every product it runs has a shape fixed by
    # the tile index alone. A partial last tile takes zero-padded copies of
    # its slices in that full shape: its padded key columns are masked and
    # its padded query rows are dropped. BLAS results can depend on operand
    # shapes, and none of these depends on T, so appending tokens leaves
    # earlier rows bitwise unchanged. Each tile's scores go into one buffer
    # sized for the last tile.
    t_total, b = q.shape[0], _QUERY_TILE
    after_position = np.triu(np.ones((b, b), dtype=bool), k=1)
    scores = np.empty(b * (t_total + -t_total % b))
    out = np.empty((t_total, values.shape[1]))
    for start in range(0, t_total, b):
        stop = start + b
        q_tile = _padded_rows(q, start, stop)
        keys_seen, values_seen = _padded_rows(keys, 0, stop), _padded_rows(values, 0, stop)
        w = np.matmul(q_tile, keys_seen.T, out=scores[: b * stop].reshape(b, stop))
        w *= beta
        w[:, start:][after_position] = -np.inf
        # |beta q.k| <= beta is finite, so a difference that overflows is
        # below -1.7e308: -inf, and exp gives 0, its true double weight.
        with np.errstate(over="ignore"):
            w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        out[start:stop] = (w @ values_seen)[: t_total - start]
    return out


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
    the block start plus the block's own tokens. Row r sees centroid i when
    its block-start count is positive or its first position in the block
    is <= r. One causal [B, B] matrix holds each row's weights on the
    earlier-or-same tokens' centroids: times the block's values it adds to
    the value sums, and its row sums add to the count total w . C. A
    partial last block is zero-padded to B rows, whose outputs are dropped
    and whose tokens count nowhere, so no product's shape depends on T and
    appending tokens leaves earlier rows bitwise unchanged. Besides the [T]
    assignments and the [T, d] outputs, working memory is O(B n + n d),
    never O(T). After each block the state takes its tokens one at a time
    in position order, so the counts and value sums are bitwise those of a
    token-by-token stream; ``quantized_state`` builds the final one alone.
    """
    dict_k = _key_dictionary(dict_k, seq.d)
    n, b, t_total = dict_k.shape[0], _QUERY_TILE, seq.T
    assignments = quantize_keys(seq.k, dict_k)

    counts = np.zeros(n, dtype=np.int64)
    value_sums = np.zeros((n, seq.d))
    earlier_or_same = np.tri(b)
    rows = np.arange(b, dtype=np.int8)  # positions 0..B fit int8; its [B, n] compare is cheap
    w = np.empty((b, n))
    out = np.empty((t_total, seq.d))
    for start in range(0, t_total, b):
        stop = start + b
        m = min(stop, t_total) - start  # the block's real tokens
        # Padded tokens take centroid 0, but they sit after every real row,
        # so the causal mask drops them; they never reach the state.
        a, q, v = (_padded_rows(x, start, stop) for x in (assignments, seq.q, seq.v))
        np.matmul(q, dict_k.T, out=w)
        w *= seq.beta
        if not counts.all():
            # Row r sees centroid i from its first position in the block
            # on, and from row 0 if a key reached it before the block.
            first = np.where(counts > 0, np.int8(0), np.int8(b))
            np.minimum.at(first, a[:m], rows[:m])
            np.putmask(w, rows[:, None] < first, -np.inf)
        # |beta q.D| <= beta is finite, so a difference that overflows is
        # below -1.7e308: -inf, and exp gives 0, its true double weight.
        with np.errstate(over="ignore"):
            w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        in_block = np.take(w, a, axis=1)
        in_block *= earlier_or_same
        sums = w @ value_sums + in_block @ v
        totals = w @ counts + in_block.sum(axis=1)
        np.divide(sums[:m], totals[:m, None], out=out[start:stop])
        np.add.at(counts, a[:m], 1)
        _add_rows(value_sums, a[:m], v[:m])
    return AttentionOutput(out)


def _window_groups(t_total: int, chunk_len: int, most: int):
    """Yield (start, windows, rows) for each run of equally shaped windows:
    the first window alone (it has no window c-1), the full windows after
    it in groups of at most ``most``, then a short last window alone."""
    first = min(chunk_len, t_total)
    full, last = divmod(t_total - first, chunk_len)
    yield 0, 1, first
    for i in range(0, full, most):
        yield first + i * chunk_len, min(most, full - i), chunk_len
    if last:
        yield t_total - last, 1, last


def vq_attention_chunked(seq: HeadSequence, dict_k, chunk_len: int) -> AttentionOutput:
    """Chunk-recurrent form of quantized-key attention.

    The sequence is cut into windows of ``chunk_len``, an integer in
    [1, 2**32 - 1]. Queries in window c see three blocks: the centroid
    dictionary with counts and value means as of the end of window c-2,
    the quantized keys of window c-1 (fully visible), and the quantized
    keys of window c under a causal mask. The combined softmax reproduces
    the quadratic form exactly. A short final window is processed as-is,
    without padding.

    One dictionary state trails the predicted window by two. At the start
    of window c >= 2 it folds in window c-2 and refreshes the log counts
    and value means of only the centroids that window reached; the others
    keep log count -inf (weight exactly 0) and value mean 0.

    Windows run in groups of equally shaped ones: the first window alone
    (it has no window c-1), then the full windows, g at a time, then a
    short last window alone. g is the largest count, at least 1, whose
    rows fit in B = _QUERY_TILE query rows and whose stacked values fit in
    _GROUP_VALUE_BYTES (1 MiB); from chunk_len 64 on, every group is one
    window. Slot i of a group holds its i-th window's log counts and its
    values [held means | window c-1 | window c]. The fold stays per window
    and in position order: slot i takes the state of the window before it
    and folds window c-2 into it. Each group then writes its logits
    [held | window c-1 | window c] into one [g, rows, width] buffer, with
    one stacked np.matmul per block, scales them by beta once, adds each
    slot's log counts, masks and normalises them in place, and multiplies
    them by the stacked values in one more stacked np.matmul. A stacked
    np.matmul makes one BLAS call per window, with that window's own
    operands, shapes and strides (gemv for a one-row window, gemm
    otherwise), so every output is bitwise the one a window-at-a-time loop
    gives.

    Beyond its [T] assignments and [T, d] quantized keys and outputs, it
    holds at most 8 (n d + V + max(B, L) (n + 2L) + B n + 3 L d) + 3 L^2
    bytes for n centroids and L = chunk_len, where V = max(2**17,
    (n + 2L) d): the value sums; the stacked values, V floats (1 MiB, or
    one window's values where those alone are larger); the logits; the
    log counts or the key tiles of ``quantize_keys``; one fold's
    temporaries; and the causal mask, 3 L^2 bytes while it is built.
    """
    chunk_len = checked_int("chunk_len", chunk_len, 1, 2**32 - 1)
    dict_k = _key_dictionary(dict_k, seq.d)
    assignments = quantize_keys(seq.k, dict_k)
    k_hat = dict_k[assignments]
    n, d, t_total = dict_k.shape[0], seq.d, seq.T
    rows, span = min(chunk_len, t_total), min(2 * chunk_len, t_total)
    most = max(1, min(_QUERY_TILE // rows, _GROUP_VALUE_BYTES // (8 * (n + span) * d)))

    out = np.empty((t_total, d))
    logits_buffer = np.empty(most * rows * (n + span))
    log_counts = np.full((most, n), -np.inf)
    values = np.zeros((most, n + span, d))
    after_position = np.triu(np.ones((rows, rows), dtype=bool), k=1)
    # Dictionary state as of the end of the latest folded window.
    counts = np.zeros(n, dtype=np.int64)
    value_sums = np.zeros((n, d))
    latest = 0  # the slot that holds the newest log counts and value means

    cols = np.arange(d)
    for start, g, lq in _window_groups(t_total, chunk_len, most):
        stop, held_rows = start + g * lq, min(start, chunk_len)  # window c-1's length
        prev, split = start - held_rows, n + held_rows  # split: the first column of window c
        width = split + lq
        for i, at in enumerate(range(start, stop, lq)):
            if i != latest:  # slot i takes the state of the window before it
                log_counts[i], values[i, :n] = log_counts[latest], values[latest, :n]
                latest = i
            if at >= 2 * chunk_len:
                folded = slice(at - 2 * chunk_len, at - chunk_len)  # window c-2
                # np.add.at adds unbuffered in index order, so a centroid's
                # sum takes its values one at a time in position order. A
                # repeated index rewrites its row with the same value.
                touched = assignments[folded]
                np.add.at(counts, touched, 1)
                flat = (touched[:, None] * d + cols).ravel()
                np.add.at(value_sums.reshape(-1), flat, seq.v[folded].ravel())
                seen = counts[touched]
                log_counts[i, touched] = np.log(seen)
                values[i, touched] = value_sums[touched] / seen[:, None]

        q = seq.q[start:stop].reshape(g, lq, d)
        logits = logits_buffer[: g * lq * width].reshape(g, lq, width)
        intra = logits[:, :, split:]
        keys_prev = k_hat[prev : prev + g * held_rows].reshape(g, held_rows, d)
        np.matmul(q, dict_k.T, out=logits[:, :, :n])
        np.matmul(q, keys_prev.transpose(0, 2, 1), out=logits[:, :, n:split])
        np.matmul(q, k_hat[start:stop].reshape(g, lq, d).transpose(0, 2, 1), out=intra)
        logits *= seq.beta
        logits[:, :, :n] += log_counts[:g, None]
        np.copyto(intra, -np.inf, where=after_position[:lq, :lq])
        # Every row sees its own key, so its max is finite.
        logits -= logits.max(axis=2, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=2, keepdims=True)
        values[:g, n:split] = seq.v[prev : prev + g * held_rows].reshape(g, held_rows, d)
        values[:g, split:width] = seq.v[start:stop].reshape(g, lq, d)
        np.matmul(logits, values[:g, :width], out=out[start:stop].reshape(g, lq, d))

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
            best = [(means_k[:n] @ k[j]).max() for j in range(lc)]
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
