"""Streaming engine: growth schedule, seeding, chunk prediction, and the
running-mean dictionary update, including the ablation variants."""

import copy
import math
import warnings

import numpy as np
import pytest

import ovq.engine as engine
import ovq.reference as reference
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
    softmax_attention,
)
from ovq.engine import select_new_centroids, update_dictionary
from ovq.reference import KEY_ROW_NORM_MAX, UNIT_NORM_ATOL

from helpers import (
    random_sequence,
    stepped_chunks,
    traced_peak,
    unit_rows,
    untiled_count_readout,
)

NO_SEEDS = np.empty(0, dtype=np.int64)


def _chunk(rng, n, d=4):
    """n unit-norm keys and n Gaussian values."""
    return unit_rows(rng, n, d), rng.standard_normal((n, d))


def _assert_state_unchanged(state, before):
    """``state`` holds the counters, counts and rows of ``before``: a deep
    copy taken earlier, or a second state fed the same chunk."""
    for field in ("n_active", "tokens_seen", "chunks_seen"):
        assert getattr(state, field) == getattr(before, field)
    for field in ("counts", "means_k", "means_v"):
        assert np.array_equal(getattr(state, field), getattr(before, field))


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
    """The chunk's one decision. Each budget comes from the schedule, and
    every call leaves the state as it found it."""

    def _state(self, rng, n_active, d, n_max=32, **kw):
        state = OvqState.fresh(OvqConfig(n_max=n_max, chunk_len=16, **kw), d)
        if n_active:
            state.means_k[:n_active] = unit_rows(rng, n_active, d)
            state.counts[:n_active] = 1
            state.n_active = state.tokens_seen = n_active
        return state

    def _select(self, state, chunk):
        before = copy.deepcopy(state)
        sims = chunk @ state.means_k[: state.n_active].T
        assignments, seeds = select_new_centroids(state, chunk, sims)
        _assert_state_unchanged(state, before)
        return assignments, seeds

    def test_zero_budget_seeds_nothing_and_assigns_to_the_nearest(self):
        # A full dictionary leaves the schedule no room.
        rng = np.random.default_rng(0)
        state = self._state(rng, 32, 6)
        chunk = unit_rows(rng, 8, 6)
        assignments, seeds = self._select(state, chunk)
        assert len(seeds) == 0
        assert np.array_equal(assignments, np.argmax(chunk @ state.means_k.T, axis=1))

    def test_full_budget_seeds_every_position(self):
        # linear_growth planned over one chunk hands that chunk all of n_max.
        rng = np.random.default_rng(1)
        state = self._state(rng, 4, 6, ablation="linear_growth", planned_chunks=1)
        assignments, seeds = self._select(state, unit_rows(rng, 8, 6))
        assert list(seeds) == list(range(8))
        assert list(assignments) == list(range(4, 12))

    def test_least_covered_key_wins(self):
        # Three chunk keys duplicate existing centroids; the fourth is
        # orthogonal to all of them, and the schedule's step is one seed.
        state = self._state(np.random.default_rng(3), 0, 4)
        state.means_k[:3] = np.eye(4)[:3]
        state.counts[:3] = 1
        state.n_active, state.tokens_seen = 3, 15
        assert new_centroid_budget(15, 4, 1, state.config) == 1
        chunk = np.vstack([np.eye(4)[0], np.eye(4)[3], np.eye(4)[1], np.eye(4)[2]])
        assignments, seeds = self._select(state, chunk)
        assert list(seeds) == [1]
        assert list(assignments) == [0, 3, 1, 2]

    def test_bootstrap_starts_at_position_zero(self):
        rng = np.random.default_rng(4)
        state = self._state(rng, 0, 6)
        assignments, seeds = self._select(state, unit_rows(rng, 8, 6))
        assert seeds[0] == 0 and len(seeds) == growth_count(8, 32)
        assert set(assignments.tolist()) == set(range(len(seeds)))

    def test_bootstrap_spreads_apart(self):
        # Two tight bundles of keys and a first step of two seeds: greedy
        # seeding from position 0 must cross to the other bundle, and the
        # rest join their own bundle's seed.
        state = self._state(np.random.default_rng(5), 0, 3, n_max=4)
        a = np.array([1.0, 0.0, 0.0])
        chunk = np.vstack([a, a, -a, a])
        assignments, seeds = self._select(state, chunk)
        assert list(seeds) == [0, 2]
        assert list(assignments) == [0, 0, 1, 0]

    def test_random_ablation_is_seeded(self):
        rng = np.random.default_rng(6)
        state = self._state(rng, 4, 6, ablation="random_assign", seed=9)
        chunk = unit_rows(rng, 10, 6)
        _, a = self._select(state, chunk)
        _, b = self._select(state, chunk)
        n_new = new_centroid_budget(4, 10, 1, state.config)
        draw = np.random.default_rng([9, 1]).choice(10, size=n_new, replace=False)
        assert np.array_equal(a, b) and np.array_equal(a, np.sort(draw))


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
        before = copy.deepcopy(state)
        with pytest.raises(InvalidStateError):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, -1]), NO_SEEDS)
        _assert_state_unchanged(state, before)

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
        before = copy.deepcopy(state)
        with pytest.raises(InvalidStateError, match=rf"position {position} "):
            update_dictionary(state, *_chunk(rng, 2), np.array([0, 1]), np.array([position]))
        _assert_state_unchanged(state, before)

    @pytest.mark.parametrize("rows", [(2, 2, 1), (2, 1, 2), (1, 2, 2)])
    def test_rejects_mismatched_shapes_and_leaves_state_alone(self, rows):
        rng = np.random.default_rng(48)
        state = self._seeded_state(rng=rng)
        before = copy.deepcopy(state)
        n_k, n_v, n_a = rows
        with pytest.raises(ConfigurationError, match="assignments"):
            update_dictionary(
                state,
                unit_rows(rng, n_k, 4),
                rng.standard_normal((n_v, 4)),
                np.zeros(n_a, dtype=int),
                NO_SEEDS,
            )
        _assert_state_unchanged(state, before)

    def test_rejects_non_integer_assignments_and_leaves_state_alone(self):
        rng = np.random.default_rng(54)
        state = self._seeded_state(rng=rng)
        before = copy.deepcopy(state)
        with pytest.raises(ConfigurationError, match="assignments must be integers"):
            update_dictionary(state, *_chunk(rng, 2), np.array([0.0, 0.0]), NO_SEEDS)
        _assert_state_unchanged(state, before)

    def test_list_assignments_merge_like_an_array(self):
        rng = np.random.default_rng(55)
        k, v = _chunk(rng, 3)
        states = [self._seeded_state(rng=np.random.default_rng(56)) for _ in range(2)]
        update_dictionary(states[0], k, v, [0, 0, 0], NO_SEEDS)
        update_dictionary(states[1], k, v, np.zeros(3, dtype=int), NO_SEEDS)
        _assert_state_unchanged(*states)

    @pytest.mark.parametrize("dtype", [np.int16, np.int8, np.uint64])
    def test_narrow_and_unsigned_assignments_merge_like_int64(self, dtype):
        # Row 70 of d=512 starts at flat index 35,840, past int16 and int8.
        rng = np.random.default_rng(57)
        states = [self._seeded_state(d=512, n_max=80) for _ in range(2)]
        rows = unit_rows(rng, 71, 512)
        for state in states:
            state.means_k[:71], state.counts[:71], state.n_active = rows, 1, 71
        k, v = unit_rows(rng, 2, 512), rng.standard_normal((2, 512))
        recs = [
            update_dictionary(s, k, v, np.array([70, 3], dtype=t), NO_SEEDS)
            for s, t in zip(states, (dtype, np.int64))
        ]
        _assert_state_unchanged(*states)
        assert np.array_equal(recs[0].learning_rates, recs[1].learning_rates)
        assert not np.array_equal(states[0].means_k[70], rows[70])

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
        before = copy.deepcopy(state)
        with pytest.raises(ConfigurationError, match="chunk"):
            update_dictionary(state, *_chunk(rng, lc), np.zeros(lc, dtype=int), NO_SEEDS)
        _assert_state_unchanged(state, before)

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


def static_shift(state):
    """The static logit shift s = beta (1 + UNIT_NORM_ATOL) KEY_ROW_NORM_MAX
    + ln(max count), or None when 2s - ln(eps) < -ln(tiny) fails in the
    state's dtype."""
    top = int(state.counts[: state.n_active].max(initial=1))
    s = state.config.beta * (1 + UNIT_NORM_ATOL) * KEY_ROW_NORM_MAX + math.log(top)
    info = np.finfo(state.means_k.dtype)
    return s if 2 * s - math.log(info.eps) < -math.log(info.tiny) else None


def unfused_predict(state, q, k, v):
    """The engine's two-block predict written out with one temporary per
    step, in the state's dtype: the dictionary block [beta q.D_k^T + log c]
    and the causal in-chunk block [beta q.k^T], whose hidden logits are
    -inf, are exponentiated after one shift, and the sum of their weighted
    values is divided by the sum of their row sums. Row i sees column j <= i
    (j <= i + 1 under the mask_off_by_one fault). The shift is the static
    bound s, subtracted from the log counts and from the in-chunk block, or,
    where ``static_shift`` gives none, the blocks' shared row max."""
    na, beta, lc = state.n_active, state.config.beta, len(q)
    dt = state.means_k.dtype
    q, k, v = (np.asarray(a, dtype=dt) for a in (q, k, v))
    s = static_shift(state)
    with np.errstate(divide="ignore"):
        log_counts = np.log(state.counts[:na].astype(np.float64))
    if s is not None:
        log_counts = log_counts - s
    dict_logits = beta * (q @ state.means_k[:na].T) + log_counts.astype(dt)
    chunk_logits = beta * (q @ k.T)
    seen = 1 if state.config._fault == "mask_off_by_one" else 0
    hidden = np.arange(lc)[None, :] > np.arange(lc)[:, None] + seen
    chunk_logits = np.where(hidden, -np.inf, chunk_logits)
    if s is not None:
        dict_w = np.exp(dict_logits)
        chunk_w = np.exp(chunk_logits - s)
    else:
        row_max = np.max(chunk_logits, axis=1, keepdims=True)
        if na:
            row_max = np.maximum(row_max, np.max(dict_logits, axis=1, keepdims=True))
        # Near the largest beta a difference can overflow to -inf: weight 0.
        with np.errstate(over="ignore"):
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


# Just below check_beta's float64 limit, where logit differences overflow.
BETA_NEAR_FLOAT64_MAX = float(np.finfo(np.float64).max) / 1.01


class TestSharedKeyDictionaryProduct:
    # The row-max fallback takes float64 past beta of about 336 and float32
    # past a static shift of about 35.7.
    @pytest.mark.parametrize(
        "dtype,beta,shift",
        [
            ("float64", 8.0, "static bound"),
            ("float64", 400.0, "row max"),
            ("float64", BETA_NEAR_FLOAT64_MAX, "row max"),
            ("float32", 8.0, "static bound"),
            ("float32", 40.0, "row max"),
        ],
    )
    @pytest.mark.parametrize("fault", ["none", "mask_off_by_one"])
    @pytest.mark.parametrize("queries", ["q is k", "q equals k", "q differs"])
    def test_forward_chunk_is_the_unfused_predict_bitwise(self, queries, fault, dtype, beta, shift):
        rng = np.random.default_rng(47)
        seq = random_sequence(rng, 96, 8, beta)
        cfg = OvqConfig(n_max=24, chunk_len=16, beta=beta, dtype=dtype, _fault=fault)
        state = OvqState.fresh(cfg, 8)
        for start in range(0, seq.T, 16):
            k, v = seq.k[start : start + 16], seq.v[start : start + 16]
            q = {"q is k": k, "q equals k": k.copy(), "q differs": seq.q[start : start + 16]}[queries]
            assert (static_shift(state) is None) == (shift == "row max")
            expected = unfused_predict(state, q, k, v)
            out, _ = ovq_forward_chunk(state, q, k, v)
            assert out.dtype == expected.dtype and np.array_equal(out, expected)
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

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("queries", ["q is k", "q equals k", "q differs"])
    def test_decisions_are_read_before_predict_overwrites_the_product(self, dtype, queries):
        # Predict turns the key-dictionary product into weights in place, so
        # the chunk's assignments, seeds and rates must be those absorb_chunk
        # takes from the untouched product of the same state.
        rng = np.random.default_rng(50)
        seq = random_sequence(rng, 96, 8, 8.0)
        state = OvqState.fresh(OvqConfig(n_max=24, chunk_len=16, beta=8.0, dtype=dtype), 8)
        for start in range(0, seq.T, 16):
            k, v = seq.k[start : start + 16], seq.v[start : start + 16]
            q = {"q is k": k, "q equals k": k.copy(), "q differs": seq.q[start : start + 16]}[queries]
            twin = copy.deepcopy(state)
            expected = absorb_chunk(twin, k, v)
            _, record = ovq_forward_chunk(state, q, k, v)
            for name in ("assignments", "new_centroid_positions", "learning_rates"):
                got, want = getattr(record, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            for name in ("means_k", "means_v", "counts"):
                assert np.array_equal(getattr(state, name), getattr(twin, name)), name
        assert len(np.unique(state.counts[: state.n_active])) > 1  # log c tips some argmaxes

    def test_float32_predict_stays_float32(self):
        rng = np.random.default_rng(49)
        seq = random_sequence(rng, 48, 8, 8.0)
        out, state = ovq_forward_sequence(
            OvqConfig(n_max=32, chunk_len=16, beta=8.0, dtype="float32"), seq
        )
        assert out.o.dtype == np.float32
        assert dictionary_readout(state, seq.q[:3]).dtype == np.float32


class TestForwardChunkMemory:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("queries", ["q is k", "q differs"])
    def test_forward_chunk_holds_one_dictionary_block(self, dtype, queries):
        # At L=128 and a full 2,048-row dictionary (d=64) the [L, n] block
        # dwarfs every other array of the chunk. Predict overwrites the
        # product absorb has read, and a differing query product replaces
        # it, so the traced peak stays near one block.
        L, n, d = 128, 2048, 64
        rng = np.random.default_rng(51)
        state = OvqState.fresh(OvqConfig(n_max=n, chunk_len=L, beta=16.0, dtype=dtype), d)
        state.means_k[:] = unit_rows(rng, n, d)
        state.means_v[:] = rng.standard_normal((n, d))
        state.counts[:] = rng.integers(1, 9, n)
        state.n_active, state.tokens_seen = n, int(state.counts.sum())
        dt = state.means_k.dtype
        k, v = unit_rows(rng, L, d).astype(dt), rng.standard_normal((L, d)).astype(dt)
        q = k if queries == "q is k" else unit_rows(rng, L, d).astype(dt)
        peak, (out, _) = traced_peak(lambda: ovq_forward_chunk(state, q, k, v))
        assert np.isfinite(out).all()
        block = L * n * dt.itemsize
        assert peak <= 1.5 * block, f"peak {peak / block:.2f} blocks"


class TestFloat32BetaBound:
    @pytest.mark.parametrize("beta", [1e39, 1e308])
    def test_float32_config_rejects_a_beta_that_overflows_and_names_it(self, beta):
        # beta * q.k cast to float32 was inf, so every predicted row read
        # inf - inf = NaN without an error.
        with pytest.raises(ConfigurationError, match=r"beta .*float32"):
            OvqConfig(n_max=8, chunk_len=16, beta=beta, dtype="float32")

    def test_float32_predict_is_finite_up_to_the_largest_accepted_beta(self):
        # A float64 beta that float32 can hold keeps every row finite; the
        # overflowing differences go to -inf (weight 0).
        beta = float(np.finfo(np.float32).max) / 1.01
        rng = np.random.default_rng(52)
        seq = random_sequence(rng, 150, 6, beta)
        out, _ = ovq_forward_sequence(
            OvqConfig(n_max=8, chunk_len=16, beta=beta, dtype="float32"), seq
        )
        assert np.isfinite(out.o).all()
        with pytest.raises(ConfigurationError):
            OvqConfig(n_max=8, chunk_len=16, beta=float(np.finfo(np.float32).max), dtype="float32")


class TestFloat64BetaNearMax:
    @pytest.mark.parametrize("seed", [1, 2, 7, 9, 13, 14, 18])
    def test_predict_is_finite_without_warnings(self, seed):
        # On these seeds a difference from the row max overflowed and numpy
        # warned "overflow encountered in subtract"; its weight, 0, was right.
        rng = np.random.default_rng(seed)
        seq = random_sequence(rng, 150, 6, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = ovq_forward_sequence(OvqConfig(n_max=24, chunk_len=16, beta=1e308), seq)
        assert np.isfinite(out.o).all()


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
        before = copy.deepcopy(state)
        arrays = {"k": unit_rows(rng, 4, 3), "v": rng.standard_normal((4, 3))}
        arrays[name][3, 2] = bad
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b.*finite"):
            absorb_chunk(state, arrays["k"], arrays["v"])
        _assert_state_unchanged(state, before)


@pytest.mark.parametrize(
    "entry", ["absorb_chunk", "ovq_forward_chunk", "update_dictionary", "stream_chunks"]
)
def test_zero_dim_keys_are_rejected_by_name_and_leave_state_alone(entry):
    rng = np.random.default_rng(52)
    state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
    absorb_chunk(state, unit_rows(rng, 4, 3), rng.standard_normal((4, 3)))
    before = copy.deepcopy(state)
    k, v = np.float64(1.0), np.zeros(3)
    calls = {
        "absorb_chunk": lambda: absorb_chunk(state, k, v),
        "ovq_forward_chunk": lambda: ovq_forward_chunk(state, unit_rows(rng, 1, 3), k, v),
        "update_dictionary": lambda: update_dictionary(state, k, v, np.zeros(1, int), NO_SEEDS),
        "stream_chunks": lambda: engine.stream_chunks(state, k, v),
    }
    with pytest.raises(ConfigurationError, match=r"^k (chunk|stream) must be .*0-d"):
        calls[entry]()
    _assert_state_unchanged(state, before)


@pytest.mark.parametrize("name", ["means_v", "means_k"])
def test_merge_rejects_rows_that_are_not_c_contiguous_and_leaves_state_alone(name):
    # The merge adds into the flat view of each row array, which aliases
    # the rows only when they are C-contiguous.
    rng = np.random.default_rng(53)
    state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=4), 3)
    setattr(state, name, np.asfortranarray(getattr(state, name)))
    before = copy.deepcopy(state)
    with pytest.raises(InvalidStateError, match=name):
        absorb_chunk(state, *_chunk(rng, 4, 3))
    _assert_state_unchanged(state, before)


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
        original = reference.check_unit_rows
        monkeypatch.setattr(
            reference, "check_unit_rows", lambda m, name: checked.append(name) or original(m, name)
        )
        q, k = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
        ovq_forward_chunk(state, q, k, rng.standard_normal((4, 3)))
        assert sorted(checked) == ["k chunk", "q chunk"]
        checked.clear()
        ovq_forward_chunk(state, k, k.copy(), rng.standard_normal((4, 3)))
        assert checked == ["k chunk"]
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


class TestStreamCheck:
    """``stream_chunks`` judges the whole stream by the chunk rule before its
    first chunk: a bad row in the last chunk is refused by stream array and
    row, and the state keeps what it held."""

    def _stream(self, rng, dtype="float64", t=40, d=3):
        state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=8, dtype=dtype), d)
        absorb_chunk(state, unit_rows(rng, 8, d), rng.standard_normal((8, d)))
        return state, unit_rows(rng, t, d), rng.standard_normal((t, d))

    @pytest.mark.parametrize(
        "name,bad,queries,message",
        [
            ("v", np.nan, None, r"^v stream has non-finite entries in row 35$"),
            ("v", np.nan, "k", r"^v stream has non-finite entries in row 35$"),
            ("k", 0.5, None, r"^k stream rows must be finite and unit norm; row 35 has norm 0\.5"),
            ("k", 0.5, "k", r"^k stream rows must be finite and unit norm; row 35 has norm 0\.5"),
            ("q", np.nan, "copy", r"^q stream rows must be finite and unit norm; row 35 has norm nan"),
            ("q", 2.0, "copy", r"^q stream rows must be finite and unit norm; row 35 has norm 2\.0"),
        ],
        ids=["v-nan", "v-nan-forward", "k-half", "k-half-forward", "q-nan", "q-norm-2"],
    )
    def test_bad_last_chunk_leaves_the_state_alone(self, name, bad, queries, message):
        rng = np.random.default_rng(54)
        state, k, v = self._stream(rng)
        q = {None: None, "k": k, "copy": k.copy()}[queries]
        if name == "v":
            v[35, 1] = bad
        else:
            {"q": q, "k": k}[name][35] *= bad
        before = copy.deepcopy(state)
        with pytest.raises(ConfigurationError, match=message):
            engine.stream_chunks(state, k, v, q=q)
        _assert_state_unchanged(state, before)

    @pytest.mark.parametrize("with_queries", [False, True], ids=["absorb", "forward"])
    def test_float32_state_refuses_a_value_past_its_range_before_any_chunk(self, with_queries):
        # -1e39 is finite in the float64 stream and -inf once a chunk is cut
        # to float32; the chunk rule found it only at the last chunk.
        rng = np.random.default_rng(55)
        state, k, v = self._stream(rng, "float32")
        v[35, 2] = -1e39
        before = copy.deepcopy(state)
        with pytest.raises(ConfigurationError, match=r"^v stream .* float32 range in row 35$"):
            engine.stream_chunks(state, k, v, q=k if with_queries else None)
        _assert_state_unchanged(state, before)

    def test_stream_of_another_dtype_is_judged_as_its_chunks_hold_it(self):
        # The bool row [1, 1, 0] has norm sqrt(2) once converted; an einsum
        # over the bools themselves reads True, norm 1.
        rng = np.random.default_rng(56)
        state, _, v = self._stream(rng, t=2)
        k = np.array([[True, False, False], [True, True, False]])
        with pytest.raises(ConfigurationError, match=r"^k stream .* row 1 has norm 1\.41421356"):
            engine.stream_chunks(state, k, v)


class TestForwardSequence:
    def test_single_chunk_sequence_equals_plain_attention(self):
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 20, 6, 8.0)
        out, _ = ovq_forward_sequence(OvqConfig(n_max=64, chunk_len=32, beta=8.0), seq)
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
        _, state = ovq_forward_sequence(OvqConfig(n_max=64, chunk_len=32, beta=8.0), seq)
        assert int(state.counts.sum()) == 333
        assert state.tokens_seen == 333

    def test_trace_matches_schedule_and_bound(self):
        rng = np.random.default_rng(20)
        d = 32
        seq = random_sequence(rng, 8192, d, 8.0)
        cfg = OvqConfig(n_max=2048, chunk_len=128, beta=8.0)
        state = OvqState.fresh(cfg, d)
        # Asserts the counters, the cap and the seeds after every chunk.
        actives = stepped_chunks(state, seq.k, seq.v, q=seq.q)
        assert actives == [growth_count(128 * c, 2048) for c in range(1, 65)]
        assert actives[15] == 1024 and state.n_active == growth_count(8192, 2048)

    def test_planned_components_match_realized(self):
        rng = np.random.default_rng(21)
        for t in (64, 200, 1000, 4097):
            cfg = OvqConfig(n_max=256, chunk_len=96, beta=8.0)
            seq = random_sequence(rng, t, 8, 8.0)
            _, state = ovq_forward_sequence(cfg, seq)
            assert state.n_active == planned_active_components(t, cfg)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(22)
        seq = random_sequence(rng, 257, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, seed=5)
        out1, s1 = ovq_forward_sequence(cfg, seq)
        out2, s2 = ovq_forward_sequence(cfg, seq)
        assert np.array_equal(out1.o, out2.o)
        assert np.array_equal(s1.means_k, s2.means_k)
        assert np.array_equal(s1.counts, s2.counts)

    def test_random_assign_ablation_deterministic_under_seed(self):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, 200, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, ablation="random_assign", seed=11)
        out1, s1 = ovq_forward_sequence(cfg, seq)
        out2, s2 = ovq_forward_sequence(cfg, seq)
        assert np.array_equal(out1.o, out2.o)
        assert np.array_equal(s1.means_k, s2.means_k)
        # growth is schedule-driven regardless of how seeds are picked
        assert s1.n_active == planned_active_components(200, cfg)

    def test_linear_growth_ablation_spreads_budget(self):
        rng = np.random.default_rng(24)
        seq = random_sequence(rng, 256, 8, 8.0)
        cfg = OvqConfig(n_max=64, chunk_len=32, beta=8.0, ablation="linear_growth")
        state = OvqState.fresh(engine.with_planned_chunks(cfg, [seq.T]), 8)
        actives = stepped_chunks(state, seq.k, seq.v, q=seq.q)
        assert state.n_active == 64  # 8 planned chunks x 8 per chunk
        assert np.all(np.diff([0] + actives) == 8)

    def test_float32_mode_tracks_reference_loosely(self):
        rng = np.random.default_rng(25)
        seq = random_sequence(rng, 48, 8, 8.0)
        out64, _ = ovq_forward_sequence(OvqConfig(n_max=32, chunk_len=16, beta=8.0), seq)
        out32, state32 = ovq_forward_sequence(
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
        peak, out = traced_peak(lambda: engine.stream_chunks(state, k, v, q=k))
        assert out.dtype == np.dtype(dtype) and out.shape == (2048, 16)
        assert peak <= out.nbytes + 2**16


class TestDictionaryReadout:
    def test_readout_matches_count_weighted_softmax(self):
        rng = np.random.default_rng(27)
        seq = random_sequence(rng, 128, 8, 8.0)
        cfg = OvqConfig(n_max=32, chunk_len=16, beta=8.0)
        _, state = ovq_forward_sequence(cfg, seq)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("beta", [8.0, 40.0])
    def test_tiles_are_the_untiled_formula(self, dtype, beta):
        # 64-row tiles either side of a tile boundary, and many tiles. In
        # float32, beta 40 takes the row-max fallback instead of the shift.
        # numpy sends a one-row tile to gemv, which rounds unlike gemm: at 65
        # queries that puts float32's last row a few ulps off.
        atol = 1e-12 if dtype == np.float64 else 1e-6
        rng = np.random.default_rng(30)
        n, d = 300, 16
        means_k, means_v = unit_rows(rng, n, d).astype(dtype), rng.standard_normal((n, d)).astype(dtype)
        counts = rng.integers(0, 4, n)
        counts[0] = 1
        for rows in (1, 63, 64, 65, 1000):
            q = unit_rows(rng, rows, d).astype(dtype)
            got = engine.count_readout(beta, q, means_k, counts, means_v)
            want = untiled_count_readout(beta, q, means_k, counts, means_v)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            if rows == 1:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_working_memory_is_one_tile_of_logits(self, dtype):
        # Beyond its [queries, d] outputs a readout holds one [64, n] logit
        # tile and [n] rows, at 1,000 queries and at 8,000; one [queries, n]
        # array would hold 16 and 125 tiles.
        rng = np.random.default_rng(31)
        n, d, itemsize = 2048, 16, np.dtype(dtype).itemsize
        means_k, means_v = unit_rows(rng, n, d).astype(dtype), rng.standard_normal((n, d)).astype(dtype)
        counts = rng.integers(1, 5, n)
        for rows in (1000, 8000):
            q = unit_rows(rng, rows, d).astype(dtype)
            peak, out = traced_peak(lambda: engine.count_readout(8.0, q, means_k, counts, means_v))
            assert peak - out.nbytes <= 2 * 64 * n * itemsize

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

    @pytest.mark.parametrize("field,value", [
        ("n_max", 8.0), ("n_max", "8"), ("chunk_len", 4.0), ("seed", 1.0),
        ("planned_chunks", 2.5),
    ])
    def test_rejects_an_integer_field_that_is_not_an_integer(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            OvqConfig(**{"n_max": 8, field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_max", 2**32), ("chunk_len", 2**32), ("planned_chunks", 2**63),
    ])
    def test_rejects_an_integer_field_wider_than_the_snapshot_field(self, field, value):
        # The header stores n_max and chunk_len as u32, planned_chunks as i64.
        with pytest.raises(ConfigurationError, match=field):
            OvqConfig(**{"n_max": 8, field: value})

    def test_integer_fields_at_the_snapshot_limits_round_trip_as_ints(self, tmp_path):
        cfg = OvqConfig(
            n_max=np.int32(2), chunk_len=np.uint64(2**32 - 1), seed=np.int64(2**63 - 1),
            planned_chunks=2**63 - 1, ablation="linear_growth",
        )
        fields = ("n_max", "chunk_len", "seed", "planned_chunks")
        assert all(type(getattr(cfg, f)) is int for f in fields)
        save_state(OvqState.fresh(cfg, 1), tmp_path / "s.bin")
        assert load_state(tmp_path / "s.bin").config == cfg

    @pytest.mark.parametrize("d", [4.0, "4", None, 0, -1, 2**32])
    def test_fresh_refuses_a_head_width_the_snapshot_cannot_hold(self, d):
        # The header stores d as u32; the rule is OvqConfig's integer-field rule.
        refused = r"^d must be (an integer|in \[1, 4294967295\])"
        with pytest.raises(ConfigurationError, match=refused):
            OvqState.fresh(OvqConfig(n_max=4), d)

    def test_fresh_stores_an_integer_head_width_as_an_int(self):
        state = OvqState.fresh(OvqConfig(n_max=4), np.int64(3))
        assert type(state.d) is int and state.means_k.shape == (4, 3)

    def test_fresh_refuses_rows_larger_than_physical_memory(self):
        # 2 * (2**32 - 1) * 2**20 * 8 bytes is about 70 PB: refused, never allocated.
        with pytest.raises(ConfigurationError, match=r"n_max 4294967295 and d 1048576"):
            OvqState.fresh(OvqConfig(n_max=2**32 - 1), 2**20)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -3.0])
    def test_rejects_beta_that_is_not_finite_and_nonnegative(self, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            OvqConfig(n_max=8, beta=beta)
