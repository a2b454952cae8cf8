"""Engine invariants over generated configurations: every ablation, both
dtypes, capacities 1..64 and chunk lengths 1..32, with stream lengths that
leave a short last chunk as often as not."""

import copy
from dataclasses import replace
from unittest import mock

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

from helpers import (
    looped_planned_active_components,
    product_decided_chunks,
    random_sequence,
    stepped_chunks,
    unit_rows,
)

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


@st.composite
def vocabulary_streams(draw):
    """Keys drawn from a 2-40-row vocabulary, so they repeat exactly and
    decisions meet exact ties, at d 2-32, chunk_len 1-64 and n_max 1-128;
    every ablation; queries the keys or apart from them; predicted or
    only absorbed."""
    ablation = draw(st.sampled_from(ABLATIONS))
    chunk_len = draw(st.integers(1, 64))
    cfg = OvqConfig(
        n_max=draw(st.integers(1, 128)),
        chunk_len=chunk_len,
        ablation=ablation,
        planned_chunks=draw(st.integers(1, 40)) if ablation == "linear_growth" else None,
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, d = draw(st.integers(1, 300)), draw(st.integers(2, 32))
    k = unit_rows(rng, draw(st.integers(2, 40)), d)
    k = k[rng.integers(0, len(k), t)]
    q = k if draw(st.booleans()) else unit_rows(rng, t, d)
    return cfg, HeadSequence(q, k, rng.standard_normal((t, d)), cfg.beta), draw(st.booleans())


def _decision_gap(seq, cfg, start, got, want):
    """How near a tie the first chunk the engine and the oracle decide
    differently (at token ``start``) is, in float64 as the oracle sees it:
    the oracle's dictionary before the chunk is that of an oracle run on
    the prefix, since the oracle is causal. For a key that joins different
    rows, the gap between its two most similar rows (the chunk's seeds, in
    the bootstrap chunk); for differing seeds, the gap between the last
    seed's best similarity and the next key's. Returns the largest."""
    k = seq.k[start : start + cfg.chunk_len]
    if start:
        prefix = HeadSequence(*(a[:start] for a in (seq.q, seq.k, seq.v)), seq.beta)
        rows = vq_attention_online(prefix, cfg).means_k
    else:
        rows = k[want[1]]  # the bootstrap's seeds; both sides pick them alike
    sims = k @ rows.T
    gaps = []
    if not np.array_equal(got[1], want[1]):
        best = np.sort(sims.max(axis=1))
        gaps.append(best[len(want[1])] - best[len(want[1]) - 1])
    seeded = np.isin(np.arange(len(k)), np.concatenate([got[1], want[1]]))
    for j in np.flatnonzero((got[0] != want[0]) & ~seeded):
        top = np.sort(sims[j])[-2:]
        gaps.append(top[1] - top[0])
    assert gaps, "a chunk whose rates alone differ"
    return max(gaps)


def _check_against_the_stream_oracle(cfg, seq, forward, near_ties):
    """Chunk by chunk the engine makes the oracle's assignments, seeds and
    rates; it ends with the oracle's counts and, bitwise, its rows, and its
    outputs are within 1e-10 of the oracle's. With ``near_ties``, the first
    chunk decided differently may instead be a near-tie: its
    ``_decision_gap`` within delta = 4 e64 (``engine._dot_error_bound``),
    since two float64 evaluations of one exact similarity differ by at most
    2 e64; the comparison stops there, outputs checked up to that chunk."""
    oracle = vq_attention_online(seq, cfg)
    state = OvqState.fresh(cfg, seq.d)
    outputs = []
    for c, start in enumerate(range(0, seq.T, cfg.chunk_len)):
        q, k, v = (a[start : start + cfg.chunk_len] for a in (seq.q, seq.k, seq.v))
        out, record = ovq_forward_chunk(state, q, k, v) if forward else (0, absorb_chunk(state, k, v))
        outputs.append(out)
        got = (record.assignments, record.new_centroid_positions, record.learning_rates)
        want = (oracle.assignments[c], oracle.seeds[c], oracle.rates[c])
        if near_ties and not all(map(np.array_equal, got, want)):
            delta = 4 * engine._dot_error_bound(seq.d, np.float64)
            assert _decision_gap(seq, cfg, start, got, want) <= delta
            if forward:
                stop = start + len(k)
                np.testing.assert_allclose(np.concatenate(outputs), oracle.o[:stop], rtol=0, atol=1e-10)
            return
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    na = state.n_active
    assert na == len(oracle.counts)
    got = (state.counts[:na], state.means_k[:na], state.means_v[:na])
    assert all(map(np.array_equal, got, (oracle.counts, oracle.means_k, oracle.means_v)))
    if forward:
        np.testing.assert_allclose(np.concatenate(outputs), oracle.o, rtol=0, atol=1e-10)


@PROPERTY_SETTINGS
@given(repeating_streams())
def test_engine_is_the_stream_oracle(case):
    _check_against_the_stream_oracle(*case, near_ties=False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(vocabulary_streams())
def test_engine_is_the_stream_oracle_up_to_near_ties_at_duplicate_keys(case):
    """The engine's key product and the oracle's per-key products may round
    an exact tie apart; see ``_check_against_the_stream_oracle``."""
    _check_against_the_stream_oracle(*case, near_ties=True)


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


def _tie_keys(rng, kind, t, d):
    """[t, d] unit keys of one kind: rows of a 2-40-row vocabulary; signed
    one-hot rows (exact ties, and -0.0 in every other entry of a negative
    row); tight clusters (1e-9 noise around vocabulary rows); or random
    unit rows."""
    if kind == "signed one-hot":
        k = np.zeros((t, d))
        k[np.arange(t), rng.integers(0, min(d, 6), t)] = 1.0
        return k * rng.choice([-1.0, 1.0], (t, 1))
    if kind == "random":
        return unit_rows(rng, t, d)
    vocabulary = unit_rows(rng, int(rng.integers(2, 41)), d)
    k = vocabulary[rng.integers(0, len(vocabulary), t)]
    if kind == "tight":
        k = k + 1e-9 * rng.standard_normal((t, d))
        k /= np.linalg.norm(k, axis=1, keepdims=True)
    return k


@st.composite
def tie_streams(draw):
    """A state and a stream whose keys tie often (``_tie_keys``), on either
    side of the key screen's size rule. "below": the state starts empty or
    with up to 24 rows, d <= 16. "forced": the same, with the screen's two
    thresholds lowered to 1 so it runs on these small products. "above":
    SCREEN_MIN_ROW / d + 0..40 rows, d 128 or 256, chunks of 4 keys or more.
    Starting rows are of the keys' kind or, half the time, random unit
    rows, so the screen can pass and duplicate keys meet at the seeding
    cut. Every ablation, both dtypes; absorb-only, or forward with queries
    apart from the keys."""
    ablation = draw(st.sampled_from(ABLATIONS))
    size = draw(st.sampled_from(["below", "forced", "above"]))
    if size == "above":
        d = draw(st.sampled_from([128, 256]))
        n_pre = engine.SCREEN_MIN_ROW // d + draw(st.integers(0, 40))
        chunk_len = draw(st.integers(4, 32))
    else:
        d, n_pre, chunk_len = draw(st.integers(1, 16)), draw(st.integers(0, 24)), draw(st.integers(1, 32))
    cfg = OvqConfig(
        n_max=n_pre + draw(st.integers(1, 40)),
        chunk_len=chunk_len,
        ablation=ablation,
        planned_chunks=draw(st.integers(1, 12)) if ablation == "linear_growth" else None,
        seed=draw(st.integers(0, 2**16)),
        dtype=draw(st.sampled_from(sorted(DTYPES))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["vocabulary", "signed one-hot", "tight", "random"]))
    t = draw(st.integers(1, 4 * chunk_len))
    keys = _tie_keys(rng, kind, n_pre + t, d)
    if draw(st.booleans()):
        keys[:n_pre] = unit_rows(rng, n_pre, d)
    state = OvqState.fresh(cfg, d)
    state.means_k[:n_pre] = keys[:n_pre]
    state.means_v[:n_pre] = rng.standard_normal((n_pre, d))
    state.counts[:n_pre] = 1  # a young dictionary: the schedule seeds every few keys
    state.n_active = state.tokens_seen = state.chunks_seen = n_pre
    k, v = keys[n_pre:], rng.standard_normal((t, d))
    q = unit_rows(rng, t, d) if draw(st.booleans()) else None
    return state, k, v, q, size == "forced"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tie_streams())
def test_decisions_are_the_key_products_at_ties(case):
    """Whatever the key screen decides, records and states are bitwise
    those of the float64 (or float32) key product's argmax and stable
    argsort of row maxima (``product_decided_chunks``)."""
    state, k, v, q, forced = case
    want_state = copy.deepcopy(state)
    want = product_decided_chunks(want_state, k, v)
    row, product = (1, 1) if forced else (engine.SCREEN_MIN_ROW, engine.SCREEN_MIN_PRODUCT)
    with mock.patch.multiple(engine, SCREEN_MIN_ROW=row, SCREEN_MIN_PRODUCT=product):
        got = []
        for start in range(0, len(k), state.config.chunk_len):
            chunk = slice(start, start + state.config.chunk_len)
            if q is None:
                record = absorb_chunk(state, k[chunk], v[chunk])
            else:
                record = ovq_forward_chunk(state, q[chunk], k[chunk], v[chunk])[1]
            got.append((record.assignments, record.new_centroid_positions, record.learning_rates))
    for g, w in zip(got, want, strict=True):
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(g, w))
    for field in ("n_active", "tokens_seen", "chunks_seen"):
        assert getattr(state, field) == getattr(want_state, field)
    for field in ("means_k", "means_v", "counts"):
        assert np.array_equal(getattr(state, field), getattr(want_state, field))
