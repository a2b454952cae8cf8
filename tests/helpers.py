"""Shared test utilities: seeded random inputs, slow scalar oracles and
earlier forms of rewritten oracle code.

The scalar oracles are deliberately written as plain Python loops, over
scalars or one token at a time, so they share no code path with the
vectorized implementations they check. The earlier forms are literal
copies of reference code before it was rewritten to reuse its buffers;
the rewrite must stay bitwise equal to them.
"""

import math
import tracemalloc

import numpy as np

from ovq import HeadSequence, absorb_chunk, ovq_forward_chunk
from ovq.engine import (
    DTYPES,
    _chunk_budget,
    _logit_shift,
    _merge,
    _subtract_row_max,
    with_planned_chunks,
)
from ovq.reference import masked_softmax, quantize_keys


def unit_rows(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_sequence(rng, t, d, beta):
    return HeadSequence(unit_rows(rng, t, d), unit_rows(rng, t, d), rng.standard_normal((t, d)), beta)


def scalar_softmax_attention(q, k, v, beta):
    """Causal attention computed entry by entry with math.exp."""
    t_total, d = q.shape
    out = np.zeros((t_total, d))
    for t in range(t_total):
        logits = []
        for i in range(t + 1):
            s = 0.0
            for a in range(d):
                s += q[t, a] * k[i, a]
            logits.append(beta * s)
        m = max(logits)
        weights = [math.exp(x - m) for x in logits]
        z = sum(weights)
        for i in range(t + 1):
            for a in range(d):
                out[t, a] += (weights[i] / z) * v[i, a]
    return out


def reconstruct_causal_weights(q, k, beta):
    """Row-stochastic causal attention weights, for simplex checks."""
    t_total = q.shape[0]
    w = np.zeros((t_total, t_total))
    for t in range(t_total):
        logits = beta * (k[: t + 1] @ q[t])
        logits -= logits.max()
        e = np.exp(logits)
        w[t, : t + 1] = e / e.sum()
    return w


def scalar_vq_attention_linear(seq, dict_k):
    """The constant-state quantized-key form one token at a time: fold v[t]
    into its centroid's count and value mean, then read out
    softmax(beta * q[t] . D_k^T + log counts) times the value means. Log
    counts start at -inf, so an unreached centroid gets weight exactly 0.
    Returns (outputs, counts, value means)."""
    n, d = dict_k.shape
    assignments = np.argmax(seq.k @ dict_k.T, axis=1)
    counts = np.zeros(n, dtype=np.int64)
    log_counts = np.full(n, -np.inf)
    value_sums = np.zeros((n, d))
    means_v = np.zeros((n, d))
    out = np.empty((seq.T, d))
    for t in range(seq.T):
        a = assignments[t]
        counts[a] += 1
        log_counts[a] = np.log(counts[a])
        value_sums[a] += seq.v[t]
        means_v[a] = value_sums[a] / counts[a]
        logits = seq.beta * (dict_k @ seq.q[t]) + log_counts
        out[t] = masked_softmax(logits[None, :])[0] @ means_v
    return out, counts, means_v


def per_row_gkr_outputs(seq):
    """``gmr.verify_gkr_attention``'s kernel estimate as it was, one row at
    a time: row t weighs v[0..t] by exp(-(beta/2) * ||q_t - k_i||^2) from
    literal squared distances."""
    out = np.empty((seq.T, seq.d))
    for t in range(seq.T):
        diff = seq.q[t][None, :] - seq.k[: t + 1]
        logw = -0.5 * seq.beta * (diff * diff).sum(axis=1)
        out[t] = masked_softmax(logw[None, :])[0] @ seq.v[: t + 1]
    return out


def looped_planned_active_components(total_tokens, config):
    """The engine's ``_chunk_budget`` replayed for every chunk of one fresh
    stream, the bootstrap seed and the ``_fault`` hook included: the count
    the engine realizes, which ``engine.planned_active_components`` states
    in closed form for fault-free configs."""
    config = with_planned_chunks(config, [total_tokens])
    active = 0
    for chunk_index, tokens in enumerate(range(0, total_tokens, config.chunk_len), start=1):
        lc = min(config.chunk_len, total_tokens - tokens)
        active += _chunk_budget(tokens, lc, chunk_index, active, config)
    return active


def stepped_chunks(state, k, v, q=None):
    """``engine.stream_chunks`` one chunk entry at a time (``absorb_chunk``,
    or ``ovq_forward_chunk`` with queries), asserting after chunk c that
    c chunks of L tokens more (the last one short) were seen and that
    n_active never fell, stayed within n_max and rose by the chunk's seeds.
    Returns n_active after every chunk."""
    step, n_max = state.config.chunk_len, state.config.n_max
    tokens, chunks, t = state.tokens_seen, state.chunks_seen, len(k)
    actives = []
    for c, start in enumerate(range(0, t, step), start=1):
        chunk, before = slice(start, start + step), state.n_active
        if q is None:
            record = absorb_chunk(state, k[chunk], v[chunk])
        else:
            record = ovq_forward_chunk(state, q[chunk], k[chunk], v[chunk])[1]
        assert state.tokens_seen == tokens + min(c * step, t)
        assert state.chunks_seen == chunks + c
        assert before <= state.n_active <= n_max
        assert state.n_active - before == len(record.new_centroid_positions)
        actives.append(state.n_active)
    return actives


def product_decided_chunks(state, k, v):
    """Absorb ``k`` and ``v`` into ``state`` chunk by chunk, each chunk's
    decision taken as the engine took it before its float32 key screen:
    the float64 (or float32) product ``k @ means_k[:n].T``, its row argmax,
    and as seeds the first budget positions of a stable argsort of the row
    maxima (the random_assign draw, or the greedy bootstrap into an empty
    dictionary), stepped through ``engine._merge``. Returns the
    (assignments, seeds, learning rates) of every chunk."""
    cfg, dt = state.config, DTYPES[state.config.dtype]
    records = []
    for start in range(0, len(k), cfg.chunk_len):
        kc, vc = (np.asarray(m[start : start + cfg.chunk_len], dtype=dt) for m in (k, v))
        n, lc = state.n_active, len(kc)
        n_new = _chunk_budget(state.tokens_seen, lc, state.chunks_seen + 1, n, cfg)
        sims = kc @ state.means_k[:n].T
        assignments = np.argmax(sims, axis=1) if n else np.zeros(lc, dtype=np.int64)
        if n_new == 0:
            seeds = np.empty(0, dtype=np.int64)
        elif cfg.ablation == "random_assign":
            rng = np.random.default_rng([cfg.seed, state.chunks_seen + 1])
            seeds = np.sort(rng.choice(lc, size=n_new, replace=False)).astype(np.int64)
        elif n == 0:
            selected, best = [0], kc @ kc[0]
            best[0] = np.inf
            while len(selected) < n_new:
                pick = int(np.argmin(best))
                selected.append(pick)
                best = np.maximum(best, kc @ kc[pick])
                best[pick] = np.inf
            seeds = np.array(sorted(selected), dtype=np.int64)
        else:
            order = np.argsort(sims.max(axis=1), kind="stable")
            seeds = np.sort(order[:n_new]).astype(np.int64)
        assignments[seeds] = n + np.arange(n_new)
        if n == 0:
            others = np.ones(lc, dtype=bool)
            others[seeds] = False
            assignments[others] = np.argmax(kc[others] @ kc[seeds].T, axis=1)
        records.append((assignments, seeds, _merge(state, kc, vc, assignments, seeds)))
    return records


def traced_peak(call):
    """(bytes ``call()`` holds at its tracemalloc peak above what was live
    before it, its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def untiled_count_readout(beta, queries, means_k, counts, means_v):
    """``engine.count_readout`` as it was: one [queries, n] logit array for
    every query at once, shifted by the same rule."""
    dtype = np.result_type(queries, means_k)
    shift = _logit_shift(beta, counts, dtype)
    logits = np.multiply(queries @ means_k.T, beta)
    with np.errstate(divide="ignore"):
        log_counts = np.log(counts.astype(np.float64))
    if shift is not None:
        log_counts -= shift
    logits += log_counts.astype(dtype, copy=False)
    if shift is None:
        _subtract_row_max(logits)
    np.exp(logits, out=logits)
    return (logits @ means_v) / logits.sum(axis=1, keepdims=True)


def allocating_masked_softmax(logits):
    """``reference.masked_softmax`` as it was, with a new array per step."""
    m = np.max(logits, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax row with no visible column")
    w = np.exp(logits - m)
    return w / np.sum(w, axis=-1, keepdims=True)


def padded_causal_mix(q, keys, values, beta):
    """``reference._causal_weighted_mix`` as it was, zero-padding whole
    copies of q, keys and values up to a multiple of 64 rows."""
    t_total, b = q.shape[0], 64
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
        with np.errstate(over="ignore"):
            w -= np.max(w, axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= np.sum(w, axis=1, keepdims=True)
        out[start:stop] = w @ values[:stop]
    return out[:t_total]


def concatenating_vq_attention_chunked(seq, dict_k, chunk_len):
    """``reference.vq_attention_chunked`` as it was: every window
    concatenates its three logit blocks and its values anew."""
    dict_k = np.asarray(dict_k, dtype=np.float64)
    assignments = quantize_keys(seq.k, dict_k)
    k_hat = dict_k[assignments]
    n = dict_k.shape[0]

    out = np.empty((seq.T, seq.d))
    counts = np.zeros(n, dtype=np.int64)
    value_sums = np.zeros((n, seq.d))
    log_counts = np.full(n, -np.inf)
    means_v = np.zeros((n, seq.d))

    for start in range(0, seq.T, chunk_len):
        stop = min(start + chunk_len, seq.T)
        prev = max(start - chunk_len, 0)
        if start >= 2 * chunk_len:
            folded = slice(prev - chunk_len, prev)
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
        out[start:stop] = allocating_masked_softmax(logits) @ values
    return out
