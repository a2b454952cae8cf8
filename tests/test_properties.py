"""Engine invariants over generated configurations: every ablation, both
dtypes, capacities 1..64 and chunk lengths 1..32, with stream lengths that
leave a short last chunk as often as not."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import ovq.engine as engine
from ovq import (
    HeadSequence,
    OvqConfig,
    OvqState,
    absorb_chunk,
    ovq_forward_chunk,
    ovq_forward_sequence,
    softmax_attention,
    vq_attention_online,
)
from ovq.engine import ABLATIONS, DTYPES, FAULTS, planned_active_components, stream_chunks

from helpers import looped_planned_active_components, random_sequence, stepped_chunks, unit_rows

# 400 puts the static logit shift past its float64 bound (about 336), so
# predict's row-max path meets the oracles as well as the static one.
BETAS = [0.0, 1.0, 8.0, 400.0]
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def streams(draw):
    ablation = draw(st.sampled_from(ABLATIONS))
    chunk_len = draw(st.integers(1, 32))
    cfg = OvqConfig(
        n_max=draw(st.integers(1, 64)),
        chunk_len=chunk_len,
        beta=draw(st.sampled_from(BETAS)),
        ablation=ablation,
        # Fixed up front so a prefix and its extension share one plan.
        planned_chunks=draw(st.integers(1, 12)) if ablation == "linear_growth" else None,
        seed=draw(st.integers(0, 2**16)),
        dtype=draw(st.sampled_from(sorted(DTYPES))),
    )
    t = draw(st.integers(1, 6 * chunk_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cfg, random_sequence(rng, t, draw(st.integers(1, 8)), cfg.beta)


@PROPERTY_SETTINGS
@given(streams())
def test_counts_conserved_and_memory_bounded(case):
    cfg, seq = case
    state = OvqState.fresh(cfg, seq.d)
    stepped_chunks(state, seq.k, seq.v, q=seq.q)  # asserts the per-chunk counts and bound
    assert state.tokens_seen == seq.T
    assert int(state.counts.sum()) == seq.T
    assert 1 <= state.n_active <= cfg.n_max
    assert np.all(state.counts[: state.n_active] >= 1)
    assert not np.any(state.counts[state.n_active :])
    assert not np.any(state.means_k[state.n_active :])
    assert not np.any(state.means_v[state.n_active :])


@PROPERTY_SETTINGS
@given(streams(), st.integers(1, 5))
def test_prefix_outputs_unchanged_when_more_chunks_follow(case, prefix_chunks):
    cfg, seq = case
    cut = min(prefix_chunks * cfg.chunk_len, seq.T)
    prefix = HeadSequence(seq.q[:cut], seq.k[:cut], seq.v[:cut], seq.beta)
    short_out, _ = ovq_forward_sequence(cfg, prefix)
    long_out, _ = ovq_forward_sequence(cfg, seq)
    assert np.array_equal(short_out.o, long_out.o[:cut])


@PROPERTY_SETTINGS
@given(streams())
def test_rows_a_chunk_never_touches_stay_bitwise_stable(case):
    cfg, seq = case
    state = OvqState.fresh(cfg, seq.d)
    for start in range(0, seq.T, cfg.chunk_len):
        chunk = slice(start, start + cfg.chunk_len)
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        _, record = ovq_forward_chunk(state, seq.q[chunk], seq.k[chunk], seq.v[chunk])
        untouched = np.setdiff1d(np.arange(cfg.n_max), record.assignments)
        assert np.array_equal(state.means_k[untouched], before[0][untouched])
        assert np.array_equal(state.means_v[untouched], before[1][untouched])
        assert np.array_equal(state.counts[untouched], before[2][untouched])


@PROPERTY_SETTINGS
@given(streams())
def test_predicting_never_changes_the_state(case):
    cfg, seq = case
    forward = OvqState.fresh(cfg, seq.d)
    stream_chunks(forward, seq.k, seq.v, q=seq.q)
    absorbed = OvqState.fresh(cfg, seq.d)
    stream_chunks(absorbed, seq.k, seq.v)
    for field in ("n_active", "tokens_seen", "chunks_seen"):
        assert getattr(forward, field) == getattr(absorbed, field)
    for field in ("means_k", "means_v", "counts"):
        assert np.array_equal(getattr(forward, field), getattr(absorbed, field))


@PROPERTY_SETTINGS
@given(streams())
def test_predict_is_the_concatenated_softmax_within_tolerance(case):
    """A float32 run's first chunk is within 1e-4 of the float64 run's; the
    stream oracle property holds float64 to the concatenated softmax."""
    cfg, seq = case
    q, k, v = (a[: cfg.chunk_len] for a in (seq.q, seq.k, seq.v))
    out32, out64 = (
        ovq_forward_chunk(OvqState.fresh(replace(cfg, dtype=dt), seq.d), q, k, v)[0]
        for dt in ("float32", "float64")
    )
    np.testing.assert_allclose(out32, out64, rtol=0, atol=1e-4)


@PROPERTY_SETTINGS
@given(streams(), st.sampled_from([16.0, 40.0]))
def test_float32_first_chunk_is_softmax_on_both_sides_of_the_shift_bound(case, beta):
    """A float32 first chunk, which sees no dictionary, is causal softmax
    attention within 1e-4 whether predict shifts by the static bound (beta
    16) or, past its float32 limit of about 35.7, by the row max (beta 40)."""
    cfg, seq = case
    cfg = replace(cfg, beta=beta, dtype="float32")
    assert (engine._logit_shift(beta, np.ones(1, dtype=np.int64), np.float32) is None) == (beta == 40.0)
    q, k, v = (a[: cfg.chunk_len] for a in (seq.q, seq.k, seq.v))
    out = ovq_forward_chunk(OvqState.fresh(cfg, seq.d), q, k, v)[0]
    want = softmax_attention(HeadSequence(q, k, v, beta)).o
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-4)


@st.composite
def repeating_streams(draw):
    """Keys near a few directions, so chunks send many tokens to one
    centroid; capacities from 1, so seeding chunks and the bootstrap chunk
    come often; every ablation and both constant rates appear. Queries are
    the keys or drawn apart from them, and the run predicts or only
    absorbs."""
    ablation = draw(st.sampled_from(ABLATIONS))
    chunk_len = draw(st.integers(1, 32))
    cfg = OvqConfig(
        n_max=draw(st.integers(1, 24)),
        chunk_len=chunk_len,
        beta=draw(st.sampled_from(BETAS)),
        ablation=ablation,
        constant_lr_rate=draw(st.sampled_from([0.25, 1.0])),
        planned_chunks=draw(st.integers(1, 8)) if ablation == "linear_growth" else None,
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, d = draw(st.integers(1, 6 * chunk_len)), draw(st.integers(1, 8))
    centers = unit_rows(rng, draw(st.integers(1, 4)), d)
    k = centers[rng.integers(0, len(centers), t)] + 0.05 * rng.standard_normal((t, d))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    q = k if draw(st.booleans()) else unit_rows(rng, t, d)
    return cfg, HeadSequence(q, k, rng.standard_normal((t, d)), cfg.beta), draw(st.booleans())


@PROPERTY_SETTINGS
@given(repeating_streams())
def test_engine_is_the_stream_oracle(case):
    """Chunk by chunk the engine makes the oracle's assignments, seeds and
    rates; it ends with the oracle's counts and, bitwise, its rows, and its
    outputs are within 1e-10 of the oracle's."""
    cfg, seq, forward = case
    oracle = vq_attention_online(seq, cfg)
    state = OvqState.fresh(cfg, seq.d)
    outputs = []
    for c, start in enumerate(range(0, seq.T, cfg.chunk_len)):
        q, k, v = (a[start : start + cfg.chunk_len] for a in (seq.q, seq.k, seq.v))
        out, record = ovq_forward_chunk(state, q, k, v) if forward else (0, absorb_chunk(state, k, v))
        outputs.append(out)
        got = (record.assignments, record.new_centroid_positions, record.learning_rates)
        want = (oracle.assignments[c], oracle.seeds[c], oracle.rates[c])
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    na = state.n_active
    assert na == len(oracle.counts)
    got = (state.counts[:na], state.means_k[:na], state.means_v[:na])
    assert all(map(np.array_equal, got, (oracle.counts, oracle.means_k, oracle.means_v)))
    if forward:
        np.testing.assert_allclose(np.concatenate(outputs), oracle.o, rtol=0, atol=1e-10)


@st.composite
def merges(draw):
    """A state of 1..8 active rows and one chunk of 1..chunk_len tokens
    with 0..2 seeds. The merging tokens all go to one row (multiplicities up
    to chunk_len) or spread over a few; every row type is a target, the
    fresh seeded rows included."""
    chunk_len = draw(st.integers(1, 32))
    lc, n_active = draw(st.integers(1, chunk_len)), draw(st.integers(1, 8))
    n_new, d = draw(st.integers(0, min(2, lc))), draw(st.integers(1, 6))
    cfg = OvqConfig(
        n_max=n_active + n_new,
        chunk_len=chunk_len,
        ablation=draw(st.sampled_from(["none", "constant_lr"])),
        constant_lr_rate=draw(st.sampled_from([0.25, 1.0])),
        dtype=draw(st.sampled_from(sorted(DTYPES))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = OvqState.fresh(cfg, d)
    state.means_k[:n_active] = unit_rows(rng, n_active, d)
    state.means_v[:n_active] = rng.standard_normal((n_active, d))
    state.counts[:n_active] = rng.integers(1, 50, n_active)
    state.n_active = n_active
    rows = n_active + n_new
    if draw(st.booleans()):
        assignments = np.full(lc, rng.integers(0, rows))
    else:
        assignments = rng.integers(0, draw(st.integers(1, rows)), lc)
    seeds = np.sort(rng.choice(lc, n_new, replace=False))
    assignments[seeds] = n_active + np.arange(n_new)
    k = unit_rows(rng, lc, d).astype(state.means_k.dtype)
    v = rng.standard_normal((lc, d)).astype(state.means_k.dtype)
    return state, k, v, assignments, seeds


def _merge_token_by_token(state, k, v, assignments, seeds):
    """Seeds take the fresh rows; then each other token, in chunk order,
    adds (x - pre-merge row) * rate to its row in the state's dtype."""
    cfg, n = state.config, state.n_active
    means_k, means_v, counts = state.means_k.copy(), state.means_v.copy(), state.counts.copy()
    for i, j in enumerate(seeds):
        means_k[n + i], means_v[n + i], counts[n + i] = k[j], v[j], 1
    merging = [j for j in range(len(assignments)) if j not in seeds]
    got = np.bincount(assignments[merging], minlength=len(counts))
    counts += got
    pre_k, pre_v = means_k.copy(), means_v.copy()
    constant = cfg.ablation == "constant_lr"
    rates = np.ones(len(assignments))
    for j in merging:
        a = assignments[j]
        rates[j] = cfg.constant_lr_rate / got[a] if constant else 1.0 / counts[a]
        lr = means_k.dtype.type(rates[j])
        means_k[a] += (k[j] - pre_k[a]) * lr
        means_v[a] += (v[j] - pre_v[a]) * lr
    return means_k, means_v, counts, rates


@PROPERTY_SETTINGS
@given(merges())
def test_merge_is_the_token_by_token_loop_bitwise(case):
    state, k, v, assignments, seeds = case
    want = _merge_token_by_token(state, k, v, assignments, seeds)
    rates = engine._merge(state, k, v, assignments, seeds)
    got = (state.means_k, state.means_v, state.counts, rates)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def capacity_plans(draw):
    ablation = draw(st.sampled_from(ABLATIONS))
    planned = draw(st.none() | st.integers(1, 60))
    cfg = OvqConfig(
        n_max=draw(st.integers(1, 300)),
        chunk_len=draw(st.integers(1, 70)),
        ablation=ablation,
        planned_chunks=planned if ablation == "linear_growth" else None,
        _fault=draw(st.sampled_from(FAULTS)),
    )
    # Streamed through the engine: at most 40 chunks. Replayed only: up to
    # 5,000 tokens.
    return cfg, draw(st.integers(0, 40 * cfg.chunk_len)), draw(st.integers(0, 5000))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(capacity_plans(), st.integers(0, 2**32 - 1))
def test_planned_components_are_the_replayed_and_the_realized_growth(plan, seed):
    cfg, streamed, replayed = plan
    # The plan leaves the fault out; the replay of the engine's budget keeps it.
    for t in (streamed, replayed):
        planned = planned_active_components(t, cfg)
        assert planned == looped_planned_active_components(t, replace(cfg, _fault="none"))
    if streamed:
        rng = np.random.default_rng(seed)
        state = OvqState.fresh(engine.with_planned_chunks(cfg, [streamed]), 2)
        stream_chunks(state, unit_rows(rng, streamed, 2), rng.standard_normal((streamed, 2)))
        assert state.n_active == looped_planned_active_components(streamed, cfg)
