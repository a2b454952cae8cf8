"""Streaming engine: growth schedule, seeding, chunk prediction, and the
running-mean dictionary update, including the ablation variants."""

import numpy as np
import pytest

import ovq.engine as engine
from ovq import (
    ConfigurationError,
    InvalidStateError,
    OvqConfig,
    OvqState,
    absorb_chunk,
    dictionary_readout,
    growth_count,
    load_state,
    new_centroid_budget,
    ovq_forward_chunk,
    ovq_forward_sequence,
    planned_active_components,
    save_state,
    select_new_centroids,
    softmax_attention,
    update_dictionary,
)

from helpers import random_sequence, traced_peak, unit_rows

NO_SEEDS = np.empty(0, dtype=np.int64)


def _chunk(rng, n, d=4):
    """n unit-norm keys and n Gaussian values."""
    return unit_rows(rng, n, d), rng.standard_normal((n, d))


class TestGrowthCount:
    def test_zero_tokens_zero_components(self):
        assert growth_count(0, 2048) == 0

    def test_at_capacity_tokens_half_filled(self):
        assert growth_count(2048, 2048) == 1024

    def test_at_three_times_capacity(self):
        assert growth_count(3 * 2048, 2048) == 1536

    def test_first_chunk_example(self):
        # Independent evaluation: floor(128 * 2048 / 2176) = floor(120.47).
        assert growth_count(128, 2048) == 128 * 2048 // (128 + 2048) == 120

    def test_monotone_and_bounded(self):
        vals = [growth_count(t, 77) for t in range(0, 770)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= 77

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            growth_count(-1, 10)
        with pytest.raises(ConfigurationError):
            growth_count(5, 0)


def _full_chunk_step(c: int, cfg: OvqConfig) -> int:
    """The schedule step across full chunk ``c`` (1-based)."""
    return new_centroid_budget(cfg.chunk_len * (c - 1), cfg.chunk_len, c, cfg)


class TestNewCentroidBudget:
    def test_first_chunk_matches_schedule(self):
        cfg = OvqConfig(n_max=2048, chunk_len=128)
        assert _full_chunk_step(1, cfg) == 120

    def test_plateau_gives_zero(self):
        cfg = OvqConfig(n_max=8, chunk_len=128)
        # Far past the plateau the schedule stops moving.
        assert _full_chunk_step(10_000, cfg) == 0

    def test_unit_chunks_step_by_at_most_one(self):
        cfg = OvqConfig(n_max=64, chunk_len=1)
        for c in range(1, 400):
            assert _full_chunk_step(c, cfg) in (0, 1)

    def test_linear_growth_needs_planned_chunks(self):
        cfg = OvqConfig(n_max=64, chunk_len=8, ablation="linear_growth")
        with pytest.raises(ConfigurationError):
            _full_chunk_step(1, cfg)

    def test_linear_growth_spreads_evenly_until_exhausted(self):
        cfg = OvqConfig(n_max=100, chunk_len=8, ablation="linear_growth", planned_chunks=8)
        budgets = [_full_chunk_step(c, cfg) for c in range(1, 12)]
        assert sum(budgets) == 100
        assert budgets[:7] == [12] * 7  # round(100/8) per chunk
        assert all(b == 0 for b in budgets[9:])

    def test_rejects_a_chunk_index_below_one(self):
        cfg = OvqConfig(n_max=64, chunk_len=8)
        with pytest.raises(ConfigurationError, match="chunk_index"):
            new_centroid_budget(0, 8, 0, cfg)

    @pytest.mark.parametrize("n_max,chunk_len", [(2048, 128), (64, 8), (5, 3), (1, 4)])
    def test_short_chunk_steps_to_its_true_token_count(self, n_max, chunk_len):
        cfg = OvqConfig(n_max=n_max, chunk_len=chunk_len)
        for c in range(1, 12):
            t = chunk_len * (c - 1)
            for lc in range(1, chunk_len):
                step = growth_count(t + lc, n_max) - growth_count(t, n_max)
                assert new_centroid_budget(t, lc, c, cfg) == step

    @pytest.mark.parametrize("total", [130, 200, 257])
    def test_stream_grows_by_the_sum_of_the_steps(self, total):
        # The first step is 120 > 0, so no bootstrap seed fires, and the
        # last chunk is short: the engine follows the steps exactly.
        cfg = OvqConfig(n_max=2048, chunk_len=128)
        assert total % cfg.chunk_len and _full_chunk_step(1, cfg) > 0
        rng = np.random.default_rng(total)
        state = OvqState.fresh(cfg, 8)
        engine.stream_chunks(state, unit_rows(rng, total, 8), rng.standard_normal((total, 8)))
        steps = [
            new_centroid_budget(t, min(cfg.chunk_len, total - t), c, cfg)
            for c, t in enumerate(range(0, total, cfg.chunk_len), start=1)
        ]
        assert state.n_active == sum(steps) == growth_count(total, 2048)


class TestSelectNewCentroids:
    def _state(self, rng, n_active, d, **kw):
        cfg = OvqConfig(n_max=32, chunk_len=16, **kw)
        state = OvqState.fresh(cfg, d)
        if n_active:
            state.means_k[:n_active] = unit_rows(rng, n_active, d)
            state.counts[:n_active] = 1
            state.n_active = n_active
        return state

    def test_zero_budget_selects_nothing(self):
        rng = np.random.default_rng(0)
        state = self._state(rng, 4, 6)
        assert len(select_new_centroids(unit_rows(rng, 8, 6), state, 0)) == 0

    def test_full_budget_selects_everything(self):
        rng = np.random.default_rng(1)
        state = self._state(rng, 4, 6)
        picked = select_new_centroids(unit_rows(rng, 8, 6), state, 8)
        assert sorted(picked) == list(range(8))

    def test_budget_beyond_chunk_rejected(self):
        rng = np.random.default_rng(2)
        state = self._state(rng, 4, 6)
        with pytest.raises(ConfigurationError):
            select_new_centroids(unit_rows(rng, 4, 6), state, 5)

    def test_least_covered_key_wins(self):
        # Three chunk keys duplicate existing centroids; the fourth is
        # orthogonal to all of them and must be the one selected.
        state = self._state(np.random.default_rng(3), 0, 4)
        state.means_k[:3] = np.eye(4)[:3]
        state.counts[:3] = 1
        state.n_active = 3
        chunk = np.vstack([np.eye(4)[0], np.eye(4)[3], np.eye(4)[1], np.eye(4)[2]])
        picked = select_new_centroids(chunk, state, 1)
        assert list(picked) == [1]

    def test_bootstrap_starts_at_position_zero(self):
        rng = np.random.default_rng(4)
        state = self._state(rng, 0, 6)
        picked = select_new_centroids(unit_rows(rng, 8, 6), state, 3)
        assert 0 in picked

    def test_bootstrap_spreads_apart(self):
        # Two tight bundles of keys: greedy seeding from position 0 must
        # cross to the other bundle for its second pick.
        state = self._state(np.random.default_rng(5), 0, 3)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([-1.0, 0.0, 0.0])
        chunk = np.vstack([a, a, b, a])
        picked = select_new_centroids(chunk, state, 2)
        assert list(picked) == [0, 2]

    def test_random_ablation_is_seeded_and_uniform(self):
        rng = np.random.default_rng(6)
        state = self._state(rng, 4, 6, ablation="random_assign", seed=9)
        chunk = unit_rows(rng, 10, 6)
        gen = np.random.default_rng(123)
        a = select_new_centroids(chunk, state, 3)
        b = select_new_centroids(chunk, state, 3)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 3


class TestUpdateDictionary:
    def _seeded_state(self, d=4, n_max=8, rng=None, **kw):
        """A fresh state, or with ``rng`` one active row: a unit key, count 1."""
        state = OvqState.fresh(OvqConfig(n_max=n_max, chunk_len=4, **kw), d)
        if rng is not None:
            state.means_k[0] = unit_rows(rng, 1, d)
            state.counts[0], state.n_active = 1, 1
        return state

    def test_single_merge_moves_to_midpoint(self):
        state = self._seeded_state()
        state.means_k[0] = np.eye(4)[0]
        state.means_v[0] = np.zeros(4)
        state.counts[0] = 1
        state.n_active = 1
        k = np.eye(4)[[1]]
        v = np.ones((1, 4))
        rec = update_dictionary(state, k, v, np.array([0]), NO_SEEDS)
        assert state.counts[0] == 2
        assert rec.learning_rates[0] == 0.5
        np.testing.assert_allclose(state.means_k[0], (np.eye(4)[0] + np.eye(4)[1]) / 2)
        np.testing.assert_allclose(state.means_v[0], 0.5 * np.ones(4))

    def test_untouched_rows_bitwise_stable(self):
        rng = np.random.default_rng(7)
        state = self._seeded_state()
        state.means_k[:3] = unit_rows(rng, 3, 4)
        state.means_v[:3] = rng.standard_normal((3, 4))
        state.counts[:3] = [2, 5, 1]
        state.n_active = 3
        before_k = state.means_k.copy()
        before_v = state.means_v.copy()
        update_dictionary(state, *_chunk(rng, 2), np.array([1, 1]), NO_SEEDS)
        for row in (0, 2):
            assert np.array_equal(state.means_k[row], before_k[row])
            assert np.array_equal(state.means_v[row], before_v[row])
        assert state.counts[1] == 7

    @pytest.mark.parametrize("chunk_len", [1, 4])
    def test_streamed_points_converge_to_arithmetic_mean(self, chunk_len):
        # Every point lands in a single centroid, one or four per chunk:
        # the adaptive rate makes the row the exact running mean, also when
        # a chunk sends several points to it.
        rng = np.random.default_rng(8)
        state = OvqState.fresh(OvqConfig(n_max=1, chunk_len=chunk_len), 6)
        ks = unit_rows(rng, 40, 6)
        vs = rng.standard_normal((40, 6))
        for i in range(0, 40, chunk_len):
            absorb_chunk(state, ks[i : i + chunk_len], vs[i : i + chunk_len])
        np.testing.assert_allclose(state.means_k[0], ks.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(state.means_v[0], vs.mean(axis=0), atol=1e-12)
        assert state.counts[0] == 40

    def test_constant_rate_ablation_uses_fixed_rate(self):
        rng = np.random.default_rng(10)
        state = self._seeded_state(ablation="constant_lr", constant_lr_rate=0.25)
        state.means_k[0] = unit_rows(rng, 1, 4)
        state.means_v[0] = np.zeros(4)
        state.counts[0] = 6
        state.n_active = 1
        old = state.means_v[0].copy()
        v = rng.standard_normal((1, 4))
        rec = update_dictionary(state, unit_rows(rng, 1, 4), v, np.array([0]), NO_SEEDS)
        assert rec.learning_rates[0] == 0.25
        np.testing.assert_allclose(state.means_v[0], old + 0.25 * (v[0] - old))

    @pytest.mark.parametrize("rate", [0.25, 1.0])
    def test_constant_rate_rows_stay_in_the_unit_ball(self, rate):
        # Each chunk moves a row a fraction of the way to the mean of the
        # unit-norm tokens it got, so the row never leaves the unit ball,
        # however many tokens one chunk sends to it.
        rng = np.random.default_rng(12)
        cfg = OvqConfig(n_max=4, chunk_len=128, ablation="constant_lr", constant_lr_rate=rate)
        state = OvqState.fresh(cfg, 8)
        engine.stream_chunks(state, unit_rows(rng, 1024, 8), unit_rows(rng, 1024, 8))
        assert np.linalg.norm(np.vstack([state.means_k, state.means_v]), axis=1).max() <= 1 + 1e-9

    def test_float32_deltas_land_one_at_a_time_in_chunk_order(self):
        # Three tokens merge into row 0 and one into row 1: each row gets
        # (x - pre-merge row) * lr added token by token, in float32.
        rng = np.random.default_rng(13)
        state = self._seeded_state(d=5, n_max=2, dtype="float32")
        state.means_k[:2] = unit_rows(rng, 2, 5)
        state.means_v[:2] = rng.standard_normal((2, 5))
        state.counts[:2], state.n_active = [3, 1], 2
        k, v = (x.astype(np.float32) for x in (unit_rows(rng, 4, 5), rng.standard_normal((4, 5))))
        lr = (1.0 / np.array([6, 2])).astype(np.float32)
        expected = [state.means_k.copy(), state.means_v.copy()]
        for rows, x in zip(expected, (k, v)):
            pre = rows.copy()
            for j, a in enumerate([0, 1, 0, 0]):
                rows[a] += (x[j] - pre[a]) * lr[a]
        update_dictionary(state, k, v, np.array([0, 1, 0, 0]), NO_SEEDS)
        assert np.array_equal(state.means_k, expected[0])
        assert np.array_equal(state.means_v, expected[1])

    def test_seeding_installs_exact_rows_with_count_one(self):
        rng = np.random.default_rng(11)
        state = self._seeded_state()
        k = unit_rows(rng, 2, 4)
        v = rng.standard_normal((2, 4))
        update_dictionary(state, k, v, np.array([0, 1]), np.array([0, 1]))
        assert state.n_active == 2
        assert np.array_equal(state.means_k[:2], k)
        assert np.array_equal(state.means_v[:2], v)
        assert np.array_equal(state.counts[:2], [1, 1])

    def test_rejects_assignment_beyond_grown_dictionary(self):
        rng = np.random.default_rng(40)
        state = self._seeded_state(rng=rng)
        with pytest.raises(InvalidStateError):
            update_dictionary(state, *_chunk(rng, 1), np.array([5]), NO_SEEDS)

    def test_rejects_negative_assignment_and_leaves_state_alone(self):
        # A negative index must not wrap around to the last (inactive) row.
        rng = np.random.default_rng(45)
        state = self._seeded_state(rng=rng)
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        with pytest.raises(InvalidStateError):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, -1]), NO_SEEDS)
        for now, then in zip((state.means_k, state.means_v, state.counts), before):
            assert np.array_equal(now, then)

    def test_rejects_duplicate_seed_positions(self):
        rng = np.random.default_rng(41)
        state = self._seeded_state()
        with pytest.raises(InvalidStateError):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, 1]), np.array([0, 0]))

    @pytest.mark.parametrize("position", [-1, 2])
    def test_rejects_seed_position_outside_the_chunk_and_leaves_state_alone(self, position):
        # -1 would seed from the last token by wraparound; 2 == L is past the end.
        rng = np.random.default_rng(46)
        state = self._seeded_state(rng=rng)
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        with pytest.raises(InvalidStateError, match=rf"position {position} "):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, 1]), np.array([position]))
        assert state.n_active == 1
        for now, then in zip((state.means_k, state.means_v, state.counts), before):
            assert np.array_equal(now, then)

    @pytest.mark.parametrize("rows", [(2, 2, 1), (2, 1, 2), (1, 2, 2)])
    def test_rejects_mismatched_shapes_and_leaves_state_alone(self, rows):
        rng = np.random.default_rng(48)
        state = self._seeded_state(rng=rng)
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        n_k, n_v, n_a = rows
        with pytest.raises(ConfigurationError, match="assignments"):
            update_dictionary(
                state,
                unit_rows(rng, n_k, 4),
                rng.standard_normal((n_v, 4)),
                np.zeros(n_a, dtype=int),
                NO_SEEDS,
            )
        for now, then in zip((state.means_k, state.means_v, state.counts), before):
            assert np.array_equal(now, then)

    def test_rejects_growth_past_capacity(self):
        rng = np.random.default_rng(42)
        state = self._seeded_state(n_max=1)
        with pytest.raises(InvalidStateError):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, 1]), np.array([0, 1]))

    def test_update_advances_the_token_counters_so_its_snapshot_loads(self, tmp_path):
        rng = np.random.default_rng(49)
        state = self._seeded_state()
        update_dictionary(state, *_chunk(rng, 4), np.array([0, 1, 0, 1]), np.array([0, 1]))
        assert (state.tokens_seen, state.chunks_seen) == (4, 1)
        save_state(state, tmp_path / "updated.bin")
        back = load_state(tmp_path / "updated.bin")
        assert back.counts.sum() == back.tokens_seen == 4
        assert back.chunks_seen == 1

    @pytest.mark.parametrize("lc", [0, 5])
    def test_rejects_chunk_outside_one_to_chunk_len_and_leaves_state_alone(self, lc):
        rng = np.random.default_rng(50)
        state = self._seeded_state(rng=rng)
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        with pytest.raises(ConfigurationError, match="chunk"):
            update_dictionary(state, *_chunk(rng, lc), np.zeros(lc, dtype=int), NO_SEEDS)
        assert (state.n_active, state.tokens_seen, state.chunks_seen) == (1, 0, 0)
        for now, then in zip((state.means_k, state.means_v, state.counts), before):
            assert np.array_equal(now, then)

    @pytest.mark.parametrize("bad", ["nan_value", "long_keys"])
    def test_rejects_what_absorb_chunk_rejects_and_leaves_state_alone(self, bad):
        # A NaN value row would be installed as a seed (and the state's own
        # snapshot would then fail to load); keys of norm 6 would merge.
        rng = np.random.default_rng(51)
        state = self._seeded_state()
        k, v = _chunk(rng, 2)
        if bad == "nan_value":
            v[0] = np.nan
        else:
            k *= 6.0
        with pytest.raises(ConfigurationError, match="v chunk" if bad == "nan_value" else "k chunk"):
            update_dictionary(state, k, v, np.array([0, 0]), np.array([0]))
        assert (state.n_active, state.tokens_seen, state.chunks_seen) == (0, 0, 0)
        assert not state.means_k.any() and not state.means_v.any() and not state.counts.any()


class TestForwardChunk:
    def test_exact_recall_of_earlier_key(self):
        # Unit chunks with capacity far above the stream length: every pair
        # gets its own centroid, and a later query that repeats an earlier
        # key must decode to that key's value over the stored value rows.
        rng = np.random.default_rng(15)
        d, t = 16, 64
        cfg = OvqConfig(n_max=4096, chunk_len=1, beta=8.0)
        state = OvqState.fresh(cfg, d)
        ks = unit_rows(rng, t, d)
        vs = unit_rows(rng, t, d)
        outs = []
        for i in range(t - 1):
            out, _ = ovq_forward_chunk(state, ks[i : i + 1], ks[i : i + 1], vs[i : i + 1])
            outs.append(out)
        assert state.n_active == t - 1  # one centroid per pair
        query = ks[[17]]
        out, _ = ovq_forward_chunk(state, query, unit_rows(rng, 1, d), unit_rows(rng, 1, d))
        stored = state.means_v[: state.n_active]
        decoded = int(np.argmax(stored @ out[0]))
        np.testing.assert_array_equal(state.means_v[17], vs[17])
        assert decoded == 17

    def test_rejects_oversized_chunk(self):
        rng = np.random.default_rng(16)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 4)
        with pytest.raises(ConfigurationError):
            ovq_forward_chunk(
                state, unit_rows(rng, 5, 4), unit_rows(rng, 5, 4), rng.standard_normal((5, 4))
            )

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 4)
        with pytest.raises(ConfigurationError):
            ovq_forward_chunk(
                state, unit_rows(rng, 2, 5), unit_rows(rng, 2, 5), rng.standard_normal((2, 5))
            )


def unfused_predict(state, q, k, v):
    """The engine's two-block predict written out with one temporary per
    step: the dictionary block [beta q.D_k^T + log c] and the causal
    in-chunk block [beta q.k^T] are exponentiated against their shared row
    max, and the sum of their weighted values is divided by the sum of
    their row sums."""
    na, beta, lc = state.n_active, state.config.beta, len(q)
    with np.errstate(divide="ignore"):
        dict_logits = beta * (q @ state.means_k[:na].T) + np.log(state.counts[:na].astype(np.float64))
    chunk_logits = beta * (q @ k.T)
    chunk_logits = np.where(np.arange(lc)[None, :] > np.arange(lc)[:, None], -np.inf, chunk_logits)
    row_max = np.max(chunk_logits, axis=1, keepdims=True)
    if na:
        row_max = np.maximum(row_max, np.max(dict_logits, axis=1, keepdims=True))
    dict_w = np.exp(dict_logits - row_max)
    chunk_w = np.exp(chunk_logits - row_max)
    weighted = chunk_w @ v + dict_w @ state.means_v[:na]
    return weighted / (np.sum(chunk_w, axis=1, keepdims=True) + np.sum(dict_w, axis=1, keepdims=True))


def one_buffer_predict(state, q, k, v):
    """softmax([beta q.D_k^T + log c | causal beta q.k^T]) . [D_v; v], with
    the two blocks concatenated into one logits buffer."""
    na, beta, lc = state.n_active, state.config.beta, len(q)
    with np.errstate(divide="ignore"):
        dict_logits = beta * (q @ state.means_k[:na].T) + np.log(state.counts[:na].astype(np.float64))
    chunk_logits = beta * (q @ k.T)
    chunk_logits = np.where(np.arange(lc)[None, :] > np.arange(lc)[:, None], -np.inf, chunk_logits)
    logits = np.concatenate([dict_logits, chunk_logits], axis=1)
    w = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    w /= np.sum(w, axis=1, keepdims=True)
    return w @ np.concatenate([state.means_v[:na], v], axis=0)


class TestSharedKeyDictionaryProduct:
    @pytest.mark.parametrize("queries", ["q is k", "q equals k", "q differs"])
    def test_forward_chunk_is_the_unfused_predict_bitwise(self, queries):
        rng = np.random.default_rng(47)
        seq = random_sequence(rng, 96, 8, 8.0)
        state = OvqState.fresh(OvqConfig(n_max=24, chunk_len=16, beta=8.0), 8)
        for start in range(0, seq.T, 16):
            k, v = seq.k[start : start + 16], seq.v[start : start + 16]
            q = {"q is k": k, "q equals k": k.copy(), "q differs": seq.q[start : start + 16]}[queries]
            expected = unfused_predict(state, q, k, v)
            out, _ = ovq_forward_chunk(state, q, k, v)
            assert np.array_equal(out, expected)
        assert state.n_active > 0

    @pytest.mark.parametrize("queries", ["q is k", "q equals k", "q differs"])
    def test_forward_chunk_matches_the_one_buffer_softmax(self, queries):
        rng = np.random.default_rng(47)
        seq = random_sequence(rng, 96, 8, 8.0)
        state = OvqState.fresh(OvqConfig(n_max=24, chunk_len=16, beta=8.0), 8)
        for start in range(0, seq.T, 16):
            k, v = seq.k[start : start + 16], seq.v[start : start + 16]
            q = {"q is k": k, "q equals k": k.copy(), "q differs": seq.q[start : start + 16]}[queries]
            expected = one_buffer_predict(state, q, k, v)
            out, _ = ovq_forward_chunk(state, q, k, v)
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert state.n_active > 0

    @pytest.mark.parametrize("queries,products", [("q is k", 1), ("q equals k", 1), ("q differs", 2)])
    def test_dictionary_product_computed_once_per_distinct_operand(self, monkeypatch, queries, products):
        rng = np.random.default_rng(48)
        seq = random_sequence(rng, 32, 8, 8.0)
        state = OvqState.fresh(OvqConfig(n_max=24, chunk_len=16, beta=8.0), 8)
        ovq_forward_chunk(state, seq.q[:16], seq.k[:16], seq.v[:16])
        calls = []
        original = engine._dictionary_sims
        monkeypatch.setattr(
            engine, "_dictionary_sims", lambda st, x: calls.append(x.shape) or original(st, x)
        )
        k = seq.k[16:]
        q = {"q is k": k, "q equals k": k.copy(), "q differs": seq.q[16:]}[queries]
        ovq_forward_chunk(state, q, k, seq.v[16:])
        assert len(calls) == products
        calls.clear()
        absorb_chunk(state, unit_rows(rng, 16, 8), rng.standard_normal((16, 8)))
        assert len(calls) == 1

    def test_float32_predict_stays_float32(self):
        rng = np.random.default_rng(49)
        seq = random_sequence(rng, 48, 8, 8.0)
        out, state, _ = ovq_forward_sequence(
            OvqConfig(n_max=32, chunk_len=16, beta=8.0, dtype="float32"), seq
        )
        assert out.o.dtype == np.float32
        assert dictionary_readout(state, seq.q[:3]).dtype == np.float32


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "name,bad", [("q", np.nan), ("k", np.nan), ("k", np.inf), ("v", np.nan), ("v", np.inf)]
    )
    def test_forward_chunk_rejects_and_names_the_array(self, name, bad):
        rng = np.random.default_rng(43)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
        arrays = {"q": unit_rows(rng, 4, 3), "k": unit_rows(rng, 4, 3)}
        arrays["v"] = rng.standard_normal((4, 3))
        arrays[name][1, 0] = bad
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b.*finite"):
            ovq_forward_chunk(state, arrays["q"], arrays["k"], arrays["v"])
        assert state.tokens_seen == 0 and state.n_active == 0

    @pytest.mark.parametrize("name,bad", [("k", np.nan), ("v", np.inf)])
    def test_absorb_rejects_and_leaves_state_alone(self, name, bad):
        rng = np.random.default_rng(44)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
        absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
        before = (state.means_k.copy(), state.means_v.copy(), state.counts.copy())
        arrays = {"k": unit_rows(rng, 4, 3), "v": rng.standard_normal((4, 3))}
        arrays[name][3, 2] = bad
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b.*finite"):
            absorb_chunk(state, arrays["k"], arrays["v"])
        assert state.tokens_seen == 4
        for now, then in zip((state.means_k, state.means_v, state.counts), before):
            assert np.array_equal(now, then)


class TestUnitNormRule:
    """One rule for query and key rows: finite and unit norm, and the error
    names the array and the first row that breaks it."""

    def _state(self, rng):
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
        absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
        return state

    @pytest.mark.parametrize("row", [0, 2, 3])
    @pytest.mark.parametrize(
        "name,bad", [("q", 2.0), ("q", np.nan), ("k", 0.5), ("k", np.nan)]
    )
    def test_forward_chunk_names_the_array_and_row(self, row, name, bad):
        rng = np.random.default_rng(45)
        state = self._state(rng)
        arrays = {"q": unit_rows(rng, 4, 3), "k": unit_rows(rng, 4, 3)}
        arrays[name][row] *= bad
        with pytest.raises(ConfigurationError, match=rf"^{name} chunk .* row {row} has norm"):
            ovq_forward_chunk(state, arrays["q"], arrays["k"], rng.standard_normal((4, 3)))

    def test_each_chunk_is_checked_once(self, monkeypatch):
        rng = np.random.default_rng(47)
        state = self._state(rng)
        checked = []
        original = engine.check_unit_rows
        monkeypatch.setattr(
            engine, "check_unit_rows", lambda m, name: checked.append(name) or original(m, name)
        )
        q, k = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
        ovq_forward_chunk(state, q, k, rng.standard_normal((4, 3)))
        assert sorted(checked) == ["k chunk", "q chunk"]
        checked.clear()
        absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
        assert checked == ["k chunk"]

    @pytest.mark.parametrize("row", [1, 3])
    @pytest.mark.parametrize("bad", [3.0, np.nan])
    def test_absorb_names_the_key_row(self, row, bad):
        rng = np.random.default_rng(46)
        state = self._state(rng)
        k = unit_rows(rng, 4, 3)
        k[row] *= bad
        with pytest.raises(ConfigurationError, match=rf"^k chunk .* row {row} has norm"):
            absorb_chunk(state, k, rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("row", [0, 4])
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_readout_names_the_probe_row(self, row, bad):
        rng = np.random.default_rng(47)
        state = self._state(rng)
        probes = unit_rows(rng, 5, 3)
        probes[row, 1] = bad
        with pytest.raises(ConfigurationError, match=rf"^queries .* row {row} has norm"):
            dictionary_readout(state, probes)


class TestForwardSequence:
    def test_single_chunk_sequence_equals_plain_attention(self):
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 20, 6, 8.0)
        out, _, _ = ovq_forward_sequence(OvqConfig(n_max=64, chunk_len=32, beta=8.0), seq)
        np.testing.assert_allclose(out.o, softmax_attention(seq).o, atol=1e-12)

    def test_sequence_beta_that_differs_from_config_beta_raises(self):
        # A beta-1 sequence run under the default beta 8 used to be predicted
        # with beta 8 and no error.
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 20, 6, 1.0)
        with pytest.raises(ConfigurationError, match=r"sequence beta 1\.0 .* config beta 8\.0"):
            ovq_forward_sequence(OvqConfig(n_max=8, chunk_len=16), seq)

    def test_count_conservation_exact(self):
        rng = np.random.default_rng(19)
        seq = random_sequence(rng, 333, 8, 8.0)
        _, state, _ = ovq_forward_sequence(OvqConfig(n_max=64, chunk_len=32, beta=8.0), seq)
        assert int(state.counts.sum()) == 333
        assert state.tokens_seen == 333

    def test_trace_matches_schedule_and_bound(self):
        rng = np.random.default_rng(20)
        d = 32
        seq = random_sequence(rng, 8192, d, 8.0)
        cfg = OvqConfig(n_max=2048, chunk_len=128, beta=8.0)
        _, state, trace = ovq_forward_sequence(cfg, seq)
        sizes = [s for _, s in trace]
        assert sizes == sorted(sizes)
        at_2048 = dict(trace)[2048]
        assert at_2048 == growth_count(2048, 2048) * (2 * d + 1) == 1024 * 65
        assert sizes[-1] <= 2048 * (2 * d + 1)
        for c, (tokens, _) in enumerate(trace, start=1):
            assert state.config.chunk_len * c == tokens
        assert state.n_active == growth_count(8192, 2048)

    def test_planned_components_match_realized(self):
        rng = np.random.default_rng(21)
        for t in (64, 200, 1000, 4097):
            cfg = OvqConfig(n_max=256, chunk_len=96, beta=8.0)
            seq = random_sequence(rng, t, 8, 8.0)
            _, state, _ = ovq_forward_sequence(cfg, seq)
            assert state.n_active == planned_active_components(t, cfg)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(22)
        seq = random_sequence(rng, 257, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, seed=5)
        out1, s1, _ = ovq_forward_sequence(cfg, seq)
        out2, s2, _ = ovq_forward_sequence(cfg, seq)
        assert np.array_equal(out1.o, out2.o)
        assert np.array_equal(s1.means_k, s2.means_k)
        assert np.array_equal(s1.counts, s2.counts)

    def test_random_assign_ablation_deterministic_under_seed(self):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, 200, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, ablation="random_assign", seed=11)
        out1, s1, _ = ovq_forward_sequence(cfg, seq)
        out2, s2, _ = ovq_forward_sequence(cfg, seq)
        assert np.array_equal(out1.o, out2.o)
        assert np.array_equal(s1.means_k, s2.means_k)
        # growth is schedule-driven regardless of how seeds are picked
        assert s1.n_active == planned_active_components(200, cfg)

    def test_linear_growth_ablation_spreads_budget(self):
        rng = np.random.default_rng(24)
        seq = random_sequence(rng, 256, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, ablation="linear_growth")
        _, state, trace = ovq_forward_sequence(cfg, seq)
        assert state.n_active == 64  # 8 planned chunks x 8 per chunk
        increments = np.diff([0] + [s // (2 * 8 + 1) for _, s in trace])
        assert np.all(increments == 8)

    def test_float32_mode_tracks_reference_loosely(self):
        rng = np.random.default_rng(25)
        seq = random_sequence(rng, 48, 8, 8.0)
        out64, _, _ = ovq_forward_sequence(OvqConfig(n_max=32, chunk_len=16, beta=8.0), seq)
        out32, state32, _ = ovq_forward_sequence(
            OvqConfig(n_max=32, chunk_len=16, beta=8.0, dtype="float32"), seq
        )
        assert state32.means_k.dtype == np.float32
        np.testing.assert_allclose(out32.o, out64.o, atol=1e-4)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stream_outputs_are_held_once(self, dtype):
        # Chunks write into one [T, d] array of the state's dtype; a list of
        # chunk outputs stacked at the end would hold them twice. The tiny
        # dictionary keeps the per-chunk working arrays far below [T, d].
        rng = np.random.default_rng(26)
        k, v = _chunk(rng, 2048, 16)
        state = OvqState.fresh(OvqConfig(n_max=4, chunk_len=32, dtype=dtype), 16)
        engine.stream_chunks(OvqState.fresh(state.config, 16), k[:200], v[:200], q=k[:200])
        peak, (out, _) = traced_peak(lambda: engine.stream_chunks(state, k, v, q=k))
        assert out.dtype == np.dtype(dtype) and out.shape == (2048, 16)
        assert peak <= out.nbytes + 2**16


class TestDictionaryReadout:
    def test_readout_matches_count_weighted_softmax(self):
        rng = np.random.default_rng(27)
        seq = random_sequence(rng, 128, 8, 8.0)
        cfg = OvqConfig(n_max=32, chunk_len=16, beta=8.0)
        _, state, _ = ovq_forward_sequence(cfg, seq)
        q = unit_rows(rng, 3, 8)
        na = state.n_active
        logits = 8.0 * (q @ state.means_k[:na].T) + np.log(state.counts[:na])
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(dictionary_readout(state, q), w @ state.means_v[:na], atol=1e-12)

    @pytest.mark.parametrize(
        "probe",
        [
            pytest.param([[np.nan, 0.0, 0.0]], id="nan"),
            pytest.param([[np.inf, 0.0, 0.0]], id="inf"),
            pytest.param([[3.0, 4.0, 0.0]], id="norm-5"),
            pytest.param([[0.0, 0.0, 0.0]], id="zero"),
            pytest.param([[1.0, 0.0, 0.0, 0.0]], id="too-wide"),
            pytest.param([[1.0, 0.0]], id="too-narrow"),
            pytest.param(np.zeros((1, 1, 3)), id="3-d"),
        ],
    )
    def test_rejects_bad_probes_and_names_the_queries(self, probe):
        rng = np.random.default_rng(28)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
        absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
        with pytest.raises(ConfigurationError, match=r"\bqueries\b"):
            dictionary_readout(state, np.asarray(probe))

    def test_accepts_a_single_unit_probe_vector(self):
        rng = np.random.default_rng(29)
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
        absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
        assert dictionary_readout(state, np.array([0.0, 0.6, 0.8])).shape == (1, 3)


class TestConfigValidation:
    def test_rejects_bad_chunk_len(self):
        with pytest.raises(ConfigurationError):
            OvqConfig(n_max=8, chunk_len=0)

    def test_rejects_bad_constant_rate(self):
        with pytest.raises(ConfigurationError):
            OvqConfig(n_max=8, ablation="constant_lr", constant_lr_rate=0.0)
        with pytest.raises(ConfigurationError):
            OvqConfig(n_max=8, ablation="constant_lr", constant_lr_rate=1.5)

    def test_rejects_unknown_ablation(self):
        with pytest.raises(ConfigurationError):
            OvqConfig(n_max=8, ablation="bogus")

    def test_rejects_a_negative_seed(self):
        # numpy seeds its generators from integers >= 0 only.
        with pytest.raises(ConfigurationError, match="seed"):
            OvqConfig(n_max=8, ablation="random_assign", seed=-1)
        assert OvqConfig(n_max=8, seed=0).seed == 0

    def test_rejects_a_seed_wider_than_the_snapshot_field(self):
        # A snapshot stores the seed as a signed 64-bit integer.
        with pytest.raises(ConfigurationError, match="seed"):
            OvqConfig(n_max=8, ablation="random_assign", seed=2**63)
        assert OvqConfig(n_max=8, seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -3.0])
    def test_rejects_beta_that_is_not_finite_and_nonnegative(self, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            OvqConfig(n_max=8, beta=beta)
