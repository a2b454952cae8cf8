"""Benchmark harness: recall probes, state accounting, token-task
evaluation, report formats, and the verification aggregator."""

import json

import numpy as np
import pytest

from ovq import (
    AttentionOutput,
    ConfigurationError,
    HeadSequence,
    IGNORE,
    MixerSpec,
    OvqConfig,
    OvqState,
    TokenStream,
    bench,
    engine,
    gen_basic_icr,
    planned_active_components,
    quantized_state,
    recall_benchmark,
    state_size_sweep,
    token_task_eval,
    verify_all,
)
from ovq.bench import RECALL_SCHEMA, rows_to_csv, rows_to_json, token_embeddings
from ovq.engine import with_planned_chunks
from ovq.tasks import N_SPECIALS

from helpers import (
    random_sequence,
    scalar_vq_attention_linear,
    stepped_chunks,
    traced_peak,
    unit_rows,
)


def ovq_mixer(n_max, d=64, beta=16.0, chunk_len=128, **kw):
    return MixerSpec(
        kind="ovq", beta=beta, d=d, ovq=OvqConfig(n_max=n_max, chunk_len=chunk_len, beta=beta, **kw)
    )


class TestMixerSpec:
    @pytest.mark.parametrize("kind", ["full_attention", "ovq", "vq_fixed", "linear_baseline"])
    # The float max is finite, but beta * q.k overflows there.
    @pytest.mark.parametrize(
        "beta", [float("nan"), float("inf"), -float("inf"), -3.0, np.finfo(float).max]
    )
    def test_rejects_beta_that_is_not_finite_and_nonnegative(self, kind, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            MixerSpec(kind=kind, beta=beta, ovq=OvqConfig(n_max=8), vq_n=8)

    @pytest.mark.parametrize("fields, name", [
        ({"kind": "full_attention", "d": 4.0}, "d"),
        ({"kind": "linear_baseline", "d": 0}, "d"),
        ({"kind": "vq_fixed", "d": 2**32}, "d"),
        ({"kind": "vq_fixed", "d": 8, "vq_n": 2.5}, "vq_n"),
        ({"kind": "vq_fixed", "d": 8, "vq_n": 0}, "vq_n"),
        ({"kind": "vq_fixed", "d": 8, "vq_n": 2**32}, "vq_n"),
        ({"kind": "full_attention", "vq_n": -1}, "vq_n"),
    ])
    def test_integer_fields_take_the_one_integer_rule(self, fields, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            MixerSpec(**fields)

    def test_integer_fields_are_stored_as_python_ints(self):
        mixer = MixerSpec(kind="vq_fixed", d=np.int64(8), vq_n=np.int32(4))
        assert (type(mixer.d), type(mixer.vq_n)) == (int, int)
        row = recall_benchmark(mixer, T=32, num_probes=4, seed=0)
        assert row.state_scalars == 4 * (2 * 8 + 1)

    def test_ovq_config_is_the_one_that_runs(self):
        mixer = ovq_mixer(64, beta=4.0)
        assert mixer.ovq == OvqConfig(n_max=64, beta=4.0)
        assert MixerSpec(kind="ovq", beta=2.0, ovq=OvqConfig(n_max=64)).ovq.beta == 2.0


class TestRecallBenchmark:
    def test_full_attention_is_a_clean_ceiling(self):
        row = recall_benchmark(MixerSpec(kind="full_attention"), T=256, num_probes=64, seed=0)
        assert row.top1_accuracy == 1.0
        assert row.state_scalars == 256 * 2 * 64

    def test_ovq_exact_recall_regime(self):
        # Unit chunks and capacity >= T*(T-1): the schedule gives every
        # pair its own centroid, so probes decode perfectly.
        t = 128
        row = recall_benchmark(
            ovq_mixer(t * (t - 1), chunk_len=1), T=t, num_probes=64, seed=1
        )
        assert row.top1_accuracy == 1.0
        assert row.state_scalars == t * (2 * 64 + 1)

    def test_baseline_degrades_below_clustered_memory(self):
        t = 1024
        lin = recall_benchmark(MixerSpec(kind="linear_baseline"), T=t, num_probes=64, seed=2)
        clustered = recall_benchmark(ovq_mixer(t), T=t, num_probes=64, seed=2)
        assert lin.top1_accuracy < clustered.top1_accuracy
        assert lin.state_scalars == 64 * 64 + 64

    def test_fixed_dictionary_mixer_runs(self):
        row = recall_benchmark(
            MixerSpec(kind="vq_fixed", vq_n=64), T=256, num_probes=32, seed=3
        )
        assert 0.0 <= row.top1_accuracy <= 1.0
        assert row.state_scalars == 64 * (2 * 64 + 1)

    def test_reports_are_byte_identical_across_runs(self):
        # No recall field is a measurement, so the same flags write the same bytes.
        mixers = [ovq_mixer(512), MixerSpec(kind="full_attention"), MixerSpec(kind="vq_fixed", vq_n=32)]

        def reports():
            rows = [recall_benchmark(m, T=256, num_probes=32, seed=4) for m in mixers]
            meta = {"seed": 4}
            return rows_to_csv(rows, RECALL_SCHEMA, meta), rows_to_json(rows, RECALL_SCHEMA, meta)

        assert reports() == reports()

    @pytest.mark.parametrize("mixer", [
        MixerSpec(kind="full_attention", d=8), MixerSpec(kind="linear_baseline", d=8),
        MixerSpec(kind="vq_fixed", d=8, vq_n=64), ovq_mixer(512, d=8),
    ], ids=lambda m: m.kind)
    def test_working_memory_is_tiles_not_probes_by_pairs(self, mixer):
        # At T = probes = 2,048 one [probes, T] float64 array takes 32 MiB.
        # The readouts and the decode score 64 probes at a time, so beyond
        # the [T, d] keys and codebook and the [probes, d] probes and
        # outputs a run holds about one [64, T] tile of scores.
        t, d = 2048, 8
        recall_benchmark(mixer, T=128, num_probes=64, seed=0)  # first-call imports
        peak = traced_peak(lambda: recall_benchmark(mixer, T=t, num_probes=t, seed=0))[0]
        assert peak <= 8 * (2 * t * d + 2 * t * d + 2 * 64 * t)

    def test_rejects_more_probes_than_pairs(self):
        with pytest.raises(ConfigurationError):
            recall_benchmark(MixerSpec(kind="full_attention"), T=16, num_probes=32, seed=0)

    @pytest.mark.parametrize("mixer", [
        MixerSpec(kind="full_attention", d=4), MixerSpec(kind="linear_baseline", d=4),
        MixerSpec(kind="vq_fixed", d=4, vq_n=4), ovq_mixer(4, d=4, chunk_len=4),
    ], ids=lambda m: m.kind)
    def test_rejects_a_run_without_probes(self, mixer):
        with pytest.raises(ConfigurationError, match="num_probes >= 1, got 0"):
            recall_benchmark(mixer, T=16, num_probes=0, seed=0)

    def test_refuses_keys_and_codebook_larger_than_memory(self):
        # 2 * 2**50 * 8 float64s are about 144 PB: refused, never allocated.
        with pytest.raises(ConfigurationError, match="T 1125899906842624 and d 8"):
            recall_benchmark(MixerSpec(kind="full_attention", d=8), T=2**50, num_probes=4, seed=0)


class TestFixedVqState:
    """The vq_fixed recall state is the per-token linear-form loop's final
    state."""

    @pytest.mark.parametrize("seed", range(50))
    def test_counts_and_value_means_equal_the_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        t, d, n = rng.integers(1, 48), rng.integers(1, 9), rng.integers(1, 17)
        keys, values = unit_rows(rng, t, d), rng.standard_normal((t, d))
        dict_k = unit_rows(rng, n, d)
        _, counts, means_v = scalar_vq_attention_linear(
            HeadSequence(keys, keys, values, 4.0), dict_k
        )
        fixed_counts, fixed_means = quantized_state(keys, values, dict_k)
        assert np.array_equal(fixed_counts, counts)
        assert np.array_equal(fixed_means, means_v)


class TestStateSizeSweep:
    def test_growing_cache_numbers(self):
        rows = state_size_sweep([MixerSpec(kind="full_attention", d=128)], [65536])
        assert rows[0].state_scalars == 16777216

    def test_clustered_state_respects_cap(self):
        mixer = ovq_mixer(2048, d=128)
        rows = state_size_sweep([mixer], [1024, 65536, 262144])
        bound = 2048 * (2 * 128 + 1)
        assert all(r.state_scalars <= bound for r in rows)

    def test_half_fill_at_capacity_tokens(self):
        mixer = ovq_mixer(2048, d=16)
        (row,) = state_size_sweep([mixer], [2048])
        assert row.state_scalars == (2048 // 2) * (2 * 16 + 1)

    @pytest.mark.parametrize("ablation", ["none", "random_assign", "linear_growth", "constant_lr"])
    def test_matches_engine_trace_exactly(self, ablation):
        rng = np.random.default_rng(5)
        cfg = OvqConfig(n_max=256, chunk_len=64, beta=8.0, ablation=ablation)
        seq = random_sequence(rng, 1500, 8, 8.0)
        # One plan for every prefix, as a whole-stream run fixes it.
        planned = with_planned_chunks(cfg, [seq.T])
        state = OvqState.fresh(planned, 8)
        actives = stepped_chunks(state, seq.k, seq.v, q=seq.q)
        bounds = [min(64 * c, 1500) for c in range(1, len(actives) + 1)]
        assert actives == [planned_active_components(t, planned) for t in bounds]
        mixer = MixerSpec(kind="ovq", beta=8.0, d=8, ovq=cfg)
        (row,) = state_size_sweep([mixer], [1500])
        recall = recall_benchmark(mixer, T=1500, num_probes=16, seed=5)
        assert row.state_scalars == recall.state_scalars == state.scalars_stored()


class TestTokenTaskEval:
    def test_full_attention_on_recall_stream(self):
        stream = gen_basic_icr(num_pairs=30, key_len=4, val_len=4, num_queries=4, seed=6)
        report = token_task_eval(MixerSpec(kind="full_attention"), stream, embedding_seed=0)
        assert report["task"] == "basic_icr"
        assert report["n_targets"] == 16
        assert report["untrained_probe"] is True
        assert report["accuracy"] == 1.0  # memory-fidelity ceiling for a growing cache

    def test_deterministic(self):
        stream = gen_basic_icr(num_pairs=20, key_len=2, val_len=2, num_queries=3, seed=7)
        a = token_task_eval(ovq_mixer(256), stream, embedding_seed=1)
        b = token_task_eval(ovq_mixer(256), stream, embedding_seed=1)
        assert a == b

    def test_decode_holds_one_tile_of_scores(self):
        # 2,048 targets over a 4,227-row value table: one [targets, vocab]
        # float64 product would take 66 MiB; the decode scores 64 targets
        # at a time.
        rng = np.random.default_rng(33)
        t, vocab, d = 2048, 4096, 16
        tokens = rng.integers(0, vocab, t)
        stream = TokenStream(tokens, tokens, vocab)
        v_table = unit_rows(rng, vocab + N_SPECIALS, d)
        out = v_table[tokens]
        bench.score_task(stream, out, v_table, "table", 0)  # first-call imports
        peak, report = traced_peak(lambda: bench.score_task(stream, out, v_table, "table", 0))
        assert report["accuracy"] == 1.0
        assert peak <= 8 * (t * d + 4 * t + 2 * 64 * len(v_table))

    def test_small_dimension_warns(self):
        stream = gen_basic_icr(num_pairs=5, key_len=1, val_len=1, num_queries=1, seed=8)
        with pytest.warns(UserWarning):
            token_task_eval(MixerSpec(kind="full_attention", d=8), stream)

    @pytest.mark.parametrize("kind", ["full_attention", "ovq"])
    def test_stream_without_targets_is_rejected_before_any_mixer_runs(self, kind, monkeypatch):
        # Every target IGNORE used to score accuracy NaN, with numpy's
        # "Mean of empty slice" warning.
        def mixer_ran(*args):
            raise AssertionError("a mixer ran on a stream with nothing to score")

        for name in ("softmax_attention", "ovq_forward_sequence"):
            monkeypatch.setattr(bench, name, mixer_ran)
        stream = TokenStream(np.arange(40) % 8, np.full(40, IGNORE), 8)
        mixer = ovq_mixer(8, d=16) if kind == "ovq" else MixerSpec(kind=kind, d=16)
        with pytest.raises(ConfigurationError, match="no target positions"):
            token_task_eval(mixer, stream)

    def test_embeddings_align_matching_tokens_only(self):
        qk, vt = token_embeddings(50, 32, seed=9)
        np.testing.assert_allclose(np.linalg.norm(qk, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(vt, axis=1), 1.0, atol=1e-12)
        # same-token q/k similarity is exactly 1; value table stays distinct
        assert not np.allclose(qk, vt)

    def test_embedding_tables_are_built_once_and_read_only(self):
        qk, vt = token_embeddings(50, 32, 9)
        again = token_embeddings(50, 32, 9)
        assert again[0] is qk and again[1] is vt
        for table in (qk, vt):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
        fresh = token_embeddings.__wrapped__(50, 32, 9)
        for cached, built in zip((qk, vt), fresh):
            assert cached.dtype == built.dtype and cached.tobytes() == built.tobytes()

    def test_capacity_sweep_on_long_recall_stream_is_nondecreasing(self):
        # ~4k-token stream, capacity sweep, 5 embedding seeds, 2% slack.
        stream = gen_basic_icr(num_pairs=220, seed=10)
        assert len(stream) == 4063
        medians = []
        for n_max in (512, 1024, 2048, 4096):
            accs = [
                token_task_eval(ovq_mixer(n_max), stream, embedding_seed=s)["accuracy"]
                for s in range(5)
            ]
            medians.append(float(np.median(accs)))
        for lo, hi in zip(medians, medians[1:]):
            assert hi >= lo - 0.02, f"sweep decreased: {medians}"


class TestReportFormats:
    def test_csv_has_versioned_header_and_meta(self):
        rows = [recall_benchmark(MixerSpec(kind="full_attention"), 64, 16, 0)]
        text = rows_to_csv(rows, RECALL_SCHEMA, {"seed": 0})
        lines = text.splitlines()
        assert lines[0] == "# schema: ovq-recall-report-v2"
        assert lines[1].startswith("# meta: {")
        assert lines[2] == "mixer,T,n_max,seed,top1_accuracy,mean_cosine,state_scalars"

    def test_json_carries_schema_and_meta(self):
        rows = [recall_benchmark(MixerSpec(kind="full_attention"), 64, 16, 0)]
        doc = json.loads(rows_to_json(rows, RECALL_SCHEMA, {"seed": 0}))
        assert doc["schema"] == "ovq-recall-report-v2"
        assert doc["meta"] == {"seed": 0}
        assert doc["rows"][0]["T"] == 64


class TestVerifyAll:
    def test_clean_run_passes_everything(self):
        report = verify_all(seed=0, sizes="small")
        assert report["all_passed"]
        assert len(report["checks"]) == 10
        assert report["checks"][-1]["name"] == "engine_vs_stream_oracle"

    @pytest.mark.parametrize(
        "fault,expected_check",
        [
            ("count_skip", "count_conservation_and_memory_bound"),
            ("mask_off_by_one", "chunk_causality"),
            ("growth_over_alloc", "growth_schedule"),
        ],
    )
    def test_each_fault_trips_its_named_check(self, fault, expected_check):
        report = verify_all(seed=0, sizes="small", fault=fault)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert not report["all_passed"]
        assert {expected_check, "engine_vs_stream_oracle"} <= failed

    def test_seed_variation_stays_clean(self):
        for seed in range(5):
            assert verify_all(seed=seed, sizes="small")["all_passed"]

    def test_nan_engine_outputs_fail_both_engine_checks_as_strict_json(self, monkeypatch):
        # A running max(worst, nan) keeps worst, so NaN predictions used to
        # pass engine_vs_stream_oracle with max_deviation 0.0.
        real = engine._predict_chunk
        monkeypatch.setattr(engine, "_predict_chunk", lambda *a: real(*a) * np.nan)
        report = verify_all(seed=0, sizes="small")
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("engine_vs_stream_oracle", "chunk_causality"):
            assert not checks[name]["passed"]
            assert checks[name]["max_deviation"] is None
        assert not report["all_passed"]
        json.dumps(report, allow_nan=False)

    def test_nan_linear_form_fails_the_vq_forms_check(self, monkeypatch):
        real = bench.vq_attention_linear
        monkeypatch.setattr(
            bench, "vq_attention_linear", lambda *a: AttentionOutput(real(*a).o * np.nan)
        )
        (check, *_) = verify_all(seed=0, sizes="small")["checks"]
        assert check["name"] == "vq_quadratic_linear_chunked"
        assert not check["passed"] and check["max_deviation"] is None

    def test_invariant_check_streams_without_predicting(self, monkeypatch):
        # It reads counts and n_active, which predict never writes.
        steps, predicts = [], []
        step, predict = engine._chunk_step, engine._predict_chunk
        monkeypatch.setattr(engine, "_chunk_step", lambda *a: steps.append(a[1]) or step(*a))
        monkeypatch.setattr(engine, "_predict_chunk", lambda *a: predicts.append(1) or predict(*a))
        sizes = bench.VERIFY_SIZES["small"]
        check = bench._check_engine_invariants(np.random.default_rng(0), sizes, "none")
        assert check.passed and steps and predicts == []
        assert all(q is None for q in steps)

    def test_causality_check_runs_three_chunk_steps_per_instance(self, monkeypatch):
        # The one-chunk sequence runs once; its outputs are the long run's prefix.
        steps = []
        step = engine._chunk_step
        monkeypatch.setattr(engine, "_chunk_step", lambda *a: steps.append(1) or step(*a))
        sizes = bench.VERIFY_SIZES["small"]
        check = bench._check_chunk_causality(np.random.default_rng(0), sizes, "none")
        assert check.passed and len(steps) == 3 * sizes["instances"]

    @pytest.mark.parametrize(
        "deviations,detail,expect",
        [
            ([], "", (0.0, True)),
            ([1e-11, 0.0], "", (1e-11, True)),
            ([1e-11, np.nan, 0.0], "", (None, False)),
            ([np.inf, 0.0], "", (None, False)),
            ([0.0], "flag", (0.0, False)),
        ],
    )
    def test_one_judging_rule(self, deviations, detail, expect):
        check = bench._judged("c", {}, deviations, 1e-10, detail)
        assert (check.max_deviation, check.passed) == expect

    def test_hundred_seeds_zero_failures(self, monkeypatch):
        micro = {"instances": 2, "t_max": 48, "engine_instances": 1, "engine_t_max": 512}
        monkeypatch.setitem(bench.VERIFY_SIZES, "micro", micro)
        failures = [s for s in range(100) if not verify_all(seed=s, sizes="micro")["all_passed"]]
        assert failures == []
