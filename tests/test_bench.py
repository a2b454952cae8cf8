"""Benchmark harness: recall probes, state accounting, token-task
evaluation, report formats, and the verification aggregator."""

import json

import numpy as np
import pytest

from ovq import (
    ConfigurationError,
    HeadSequence,
    MixerSpec,
    OvqConfig,
    gen_basic_icr,
    ovq_forward_sequence,
    recall_benchmark,
    state_size_sweep,
    token_task_eval,
    verify_all,
    vq_attention_linear,
)
from ovq.bench import _fixed_vq_state, rows_to_csv, rows_to_json, token_embeddings

from helpers import random_sequence, unit_rows


def ovq_mixer(n_max, d=64, beta=16.0, chunk_len=128, **kw):
    return MixerSpec(
        kind="ovq", beta=beta, d=d, ovq=OvqConfig(n_max=n_max, chunk_len=chunk_len, beta=beta, **kw)
    )


class TestMixerSpec:
    @pytest.mark.parametrize("kind", ["full_attention", "ovq", "vq_fixed", "linear_baseline"])
    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -3.0])
    def test_rejects_beta_that_is_not_finite_and_nonnegative(self, kind, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            MixerSpec(kind=kind, beta=beta, ovq=OvqConfig(n_max=8), vq_n=8)

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

    def test_deterministic_apart_from_wall_time(self):
        a = recall_benchmark(ovq_mixer(512), T=256, num_probes=32, seed=4)
        b = recall_benchmark(ovq_mixer(512), T=256, num_probes=32, seed=4)
        assert (a.top1_accuracy, a.mean_cosine, a.state_scalars) == (
            b.top1_accuracy,
            b.mean_cosine,
            b.state_scalars,
        )

    def test_rejects_more_probes_than_pairs(self):
        with pytest.raises(ConfigurationError):
            recall_benchmark(MixerSpec(kind="full_attention"), T=16, num_probes=32, seed=0)


class TestFixedVqState:
    """The vq_fixed recall state is the linear-form oracle's final state."""

    @pytest.mark.parametrize("seed", range(50))
    def test_counts_and_value_means_equal_the_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        t, d, n = rng.integers(1, 48), rng.integers(1, 9), rng.integers(1, 17)
        keys, values = unit_rows(rng, t, d), rng.standard_normal((t, d))
        dict_k = unit_rows(rng, n, d)
        _, counts, means_v = vq_attention_linear(
            HeadSequence(keys, keys, values, 4.0), dict_k, return_state=True
        )
        fixed_counts, fixed_means = _fixed_vq_state(dict_k, keys, values)
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
        _, state, trace = ovq_forward_sequence(cfg, seq)
        mixer = MixerSpec(kind="ovq", beta=8.0, d=8, ovq=cfg)
        (row,) = state_size_sweep([mixer], [1500])
        recall = recall_benchmark(mixer, T=1500, num_probes=16, seed=5)
        assert row.state_scalars == recall.state_scalars == trace[-1][1] == state.scalars_stored()


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

    def test_small_dimension_warns(self):
        stream = gen_basic_icr(num_pairs=5, key_len=1, val_len=1, num_queries=1, seed=8)
        with pytest.warns(UserWarning):
            token_task_eval(MixerSpec(kind="full_attention", d=8), stream)

    def test_embeddings_align_matching_tokens_only(self):
        qk, vt = token_embeddings(50, 32, seed=9)
        np.testing.assert_allclose(np.linalg.norm(qk, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(vt, axis=1), 1.0, atol=1e-12)
        # same-token q/k similarity is exactly 1; value table stays distinct
        assert not np.allclose(qk, vt)

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
        text = rows_to_csv(rows, "ovq-recall-report-v1", {"seed": 0})
        lines = text.splitlines()
        assert lines[0] == "# schema: ovq-recall-report-v1"
        assert lines[1].startswith("# meta: {")
        assert lines[2].split(",")[0] == "mixer"

    def test_json_carries_schema_and_meta(self):
        rows = [recall_benchmark(MixerSpec(kind="full_attention"), 64, 16, 0)]
        doc = json.loads(rows_to_json(rows, "ovq-recall-report-v1", {"seed": 0}))
        assert doc["schema"] == "ovq-recall-report-v1"
        assert doc["meta"] == {"seed": 0}
        assert doc["rows"][0]["T"] == 64


class TestVerifyAll:
    def test_clean_run_passes_everything(self):
        report = verify_all(seed=0, sizes="small")
        assert report["all_passed"]
        assert len(report["checks"]) == 10

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
        assert expected_check in failed

    def test_seed_variation_stays_clean(self):
        for seed in range(5):
            assert verify_all(seed=seed, sizes="small")["all_passed"]

    def test_hundred_seeds_zero_failures(self):
        micro = {"instances": 2, "t_max": 48, "engine_instances": 1, "engine_t_max": 512}
        failures = [s for s in range(100) if not verify_all(seed=s, sizes=micro)["all_passed"]]
        assert failures == []
