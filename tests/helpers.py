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


def absorb_by_add_at(state, k_chunk, v_chunk):
    """One absorb step as the engine computed it with ``np.add.at``: a
    separate max (seed selection) and argmax (assignment), then every
    merge delta against the pre-merge rows, scattered in chunk order.
    Updates ``state`` in place and returns (assignments,
    new_centroid_positions, learning_rates). The engine's merge must match
    it bit for bit."""
    from ovq.engine import DTYPES, _chunk_budget

    cfg = state.config
    dt = DTYPES[cfg.dtype]
    k_chunk = np.asarray(k_chunk, dtype=dt)
    v_chunk = np.asarray(v_chunk, dtype=dt)
    lc = k_chunk.shape[0]
    prev_active = state.n_active
    sims = k_chunk @ state.means_k[:prev_active].T
    n_new = _chunk_budget(state.tokens_seen, lc, state.chunks_seen + 1, prev_active, cfg)

    if n_new <= 0:
        new_pos = np.empty(0, dtype=np.int64)
    elif cfg.ablation == "random_assign":
        rng = np.random.default_rng([cfg.seed, state.chunks_seen + 1])
        new_pos = np.sort(rng.choice(lc, size=n_new, replace=False)).astype(np.int64)
    elif prev_active == 0:
        selected = [0]
        if n_new > 1:
            best = k_chunk @ k_chunk[0]
            best[0] = np.inf
            for _ in range(n_new - 1):
                pick = int(np.argmin(best))
                selected.append(pick)
                best = np.maximum(best, k_chunk @ k_chunk[pick])
                best[pick] = np.inf
        new_pos = np.array(sorted(selected), dtype=np.int64)
    else:
        order = np.argsort(np.max(sims, axis=1), kind="stable")
        new_pos = np.sort(order[:n_new]).astype(np.int64)

    assignments = np.zeros(lc, dtype=np.int64)
    if prev_active > 0:
        assignments = np.argmax(sims, axis=1).astype(np.int64)
    if len(new_pos):
        assignments[new_pos] = prev_active + np.arange(len(new_pos))
    if prev_active == 0:
        others = np.setdiff1d(np.arange(lc), new_pos)
        if len(others):
            assignments[others] = np.argmax(k_chunk[others] @ k_chunk[new_pos].T, axis=1)

    fresh = np.arange(prev_active, prev_active + len(new_pos))
    if len(new_pos):
        seed_order = new_pos[np.argsort(assignments[new_pos])]
        state.means_k[fresh] = k_chunk[seed_order]
        state.means_v[fresh] = v_chunk[seed_order]
        state.counts[fresh] = 1
        state.n_active = prev_active + len(new_pos)
    merge_mask = np.ones(lc, dtype=bool)
    merge_mask[new_pos] = False
    merge_idx = np.flatnonzero(merge_mask)
    targets = assignments[merge_idx]
    lrs = np.ones(lc)
    if len(merge_idx):
        counts_pre = state.counts[targets]
        per_target = np.bincount(targets, minlength=state.n_active)
        if cfg._fault != "count_skip":
            state.counts[: state.n_active] += per_target
        if cfg.ablation == "constant_lr":
            merge_lrs = np.full(len(merge_idx), cfg.constant_lr_rate)
        else:
            merge_lrs = 1.0 / (counts_pre + per_target[targets]).astype(np.float64)
        lrs[merge_idx] = merge_lrs
        mu_k_pre = state.means_k[targets]
        mu_v_pre = state.means_v[targets]
        lr_col = merge_lrs.astype(dt)[:, None]
        np.add.at(state.means_k, targets, lr_col * (k_chunk[merge_idx] - mu_k_pre))
        np.add.at(state.means_v, targets, lr_col * (v_chunk[merge_idx] - mu_v_pre))

    state.tokens_seen += lc
    state.chunks_seen += 1
    return assignments, new_pos, lrs
