"""Shared test utilities: seeded random inputs and slow scalar oracles.

The oracles here are deliberately written as plain Python loops, over
scalars or one token at a time, so they share no code path with the
vectorized implementations they check.
"""

import math
import tracemalloc

import numpy as np

from ovq import HeadSequence
from ovq.reference import masked_softmax


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
