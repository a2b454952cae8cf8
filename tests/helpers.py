"""Shared test utilities: seeded random inputs and slow scalar oracles.

The oracles here are deliberately written as plain Python loops over
scalars so they share no code path with the vectorized implementations
they check.
"""

import math

import numpy as np

from ovq import HeadSequence


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
