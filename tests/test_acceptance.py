"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and
instance count, printing a pass line on completion (visible with -s).
Trained-model task scores are out of reach without an outer training
loop, so the accuracy criteria are property-based plus comparative
desk-scale runs, as designed.
"""

import json
import subprocess
import sys
import time

import numpy as np

from ovq import (
    Dictionary,
    GaussianMixture,
    HeadSequence,
    MixerSpec,
    OvqConfig,
    OvqState,
    absorb_chunk,
    batch_kmeans_step,
    e_step,
    em_fit,
    gen_basic_icr,
    gen_icl,
    gen_positional_icr,
    gmr_predict,
    gmr_predict_expectation,
    growth_count,
    init_means_kmeanspp,
    m_step,
    new_centroid_budget,
    ovq_forward_chunk,
    ovq_forward_sequence,
    planned_active_components,
    quantized_state,
    recall_benchmark,
    state_size_sweep,
    verify_gkr_attention,
    verify_newton_equivalence,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_quadratic,
)
from ovq.gmr import INFINITE

from helpers import random_sequence, stepped_chunks, unit_rows


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def test_criterion_01_linear_form_identity():
    """Count-tracking linear form matches the quadratic form row-wise to
    1e-10 over 1000 random instances, under 60 s."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 513))
        d = int(rng.integers(1, 33))
        n = int(rng.integers(1, 65))
        beta = float(rng.choice([1.0, 8.0, 32.0]))
        seq = random_sequence(rng, t, d, beta)
        dict_k = unit_rows(rng, n, d)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        lin = vq_attention_linear(seq, dict_k).o
        worst = max(worst, float(np.max(np.abs(quad - lin))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"linear-form identity, worst dev {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_chunk_recurrence_identity():
    """Chunk-recurrent form matches the quadratic form to 1e-10 for window
    lengths 1, 7, 128, and T, including lengths none of them divide."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(30):
        t = int(rng.choice([64, 129, 200, 250, 381, 512]))
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, 33))
        seq = random_sequence(rng, t, d, float(rng.choice([1.0, 8.0, 32.0])))
        dict_k = unit_rows(rng, n, d)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        for chunk_len in (1, 7, 128, t):
            chunked = vq_attention_chunked(seq, dict_k, chunk_len).o
            worst = max(worst, float(np.max(np.abs(quad - chunked))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"chunk-recurrence identity, worst dev {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_gmr_bridge():
    """Mixture expectation form == softmax readout form == streamed linear
    form readout on shared state, to 1e-10 over 1000 instances."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 65))
        d = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        beta = float(rng.choice([1.0, 8.0, 32.0]))
        seq = random_sequence(rng, t, d, beta)
        dict_k = unit_rows(rng, n, d)
        out = vq_attention_linear(seq, dict_k)
        counts, means_v = quantized_state(seq.k, seq.v, dict_k)
        mix = GaussianMixture(
            np.concatenate([dict_k, means_v], axis=1), counts / counts.sum(), beta=1.0
        )
        q = seq.q[-1]
        soft = gmr_predict(mix, counts.astype(float), q, beta)
        expectation = gmr_predict_expectation(mix, counts.astype(float), q, beta)
        worst = max(worst, float(np.max(np.abs(soft - expectation))))
        worst = max(worst, float(np.max(np.abs(soft - out.o[-1]))))
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    _report(3, f"mixture-readout bridge, worst dev {worst:.2e}")


def test_criterion_04_gkr_bridge():
    """Gaussian-kernel-regression expectation equals causal softmax
    attention to 1e-10 over 1000 instances."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 65))
        d = int(rng.integers(1, 17))
        beta = float(rng.choice([1.0, 8.0, 32.0]))
        worst = max(worst, verify_gkr_attention(random_sequence(rng, t, d, beta)))
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    _report(4, f"kernel-regression bridge, worst dev {worst:.2e}")


def test_criterion_05_em_properties():
    """Hard-assignment re-estimation equals a k-means step bitwise; the
    likelihood never worsens across 20 iterations on 50 seeded 2-cluster
    datasets (1e-9 slack per step); the Newton check stays below 1e-12."""
    rng = np.random.default_rng(1005)
    # bitwise hard-step identity
    for _ in range(50):
        t = int(rng.integers(10, 80))
        dim = 2 * int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        data = rng.standard_normal((t, dim))
        mix = init_means_kmeanspp(data, n, seed=int(rng.integers(2**31)))
        z = e_step(mix, data)
        stepped = m_step(data, z, INFINITE)
        km = batch_kmeans_step(data, np.argmax(z, axis=1), n)
        assert np.array_equal(stepped.means_joint, km)

    # likelihood descent
    worst_rise = -np.inf
    for seed in range(50):
        gen = np.random.default_rng(seed)
        dim = 4
        center = gen.standard_normal(dim)
        other = center.copy()
        other[0] += 4.0
        data = np.vstack(
            [center + gen.standard_normal((100, dim)), other + gen.standard_normal((100, dim))]
        )
        mix = init_means_kmeanspp(data, 2, seed=seed, beta=1.0)
        _, trace = em_fit(mix, data, 20)
        worst_rise = max(worst_rise, float(np.max(np.diff(trace))))
    assert worst_rise <= 1e-9, f"likelihood rose by {worst_rise:.3e}"

    # Newton equivalence
    worst = 0.0
    for _ in range(50):
        data = rng.standard_normal((int(rng.integers(20, 120)), int(rng.integers(2, 10))))
        assignments = rng.integers(0, 8, size=len(data))
        worst = max(worst, verify_newton_equivalence(data, assignments, seed=0))
    assert worst <= 1e-12, f"Newton deviation {worst:.3e}"
    _report(5, f"EM properties, worst rise {worst_rise:.2e}, Newton dev {worst:.2e}")


def test_criterion_06_growth_schedule():
    """Capacity formula hits its closed-form points, is monotone over
    [0, 10N], and per-chunk budgets telescope to the schedule for 100
    random (T, L, N) triples."""
    n = 2048
    assert growth_count(0, n) == 0
    assert growth_count(n, n) == n // 2
    assert growth_count(3 * n, n) == 3 * n // 4
    vals = [growth_count(t, n) for t in range(0, 10 * n + 1, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))

    rng = np.random.default_rng(1006)
    for _ in range(100):
        t_total = int(rng.integers(1, 8192))
        chunk_len = int(rng.integers(1, 512))
        n_max = int(rng.integers(1, 4096))
        cfg = OvqConfig(n_max=n_max, chunk_len=chunk_len)
        total = 0
        tokens = 0
        c = 0
        while tokens < t_total:
            lc = min(chunk_len, t_total - tokens)
            c += 1
            total += new_centroid_budget(tokens, lc, c, cfg)
            tokens += lc
        assert total == growth_count(t_total, n_max)
    _report(6, "growth schedule exactness, monotonicity, telescoping")


def test_criterion_07_engine_invariants():
    """Count conservation, hard memory bound, bitwise sparsity, prefix
    causality, and the prediction simplex over 100 randomized streams up
    to 16384 tokens, within 5 minutes."""
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    d_choices = [8, 16, 32]
    for i in range(100):
        t = int(np.exp(rng.uniform(np.log(128), np.log(16384))))
        d = int(rng.choice(d_choices))
        n_max = int(rng.choice([256, 1024, 2048]))
        cfg = OvqConfig(n_max=n_max, chunk_len=128, beta=8.0, seed=i)
        seq = random_sequence(rng, t, d, 8.0)
        bound = n_max * (2 * d + 1)

        check_sparsity = i % 10 == 0
        check_simplex = i % 20 == 0
        state = OvqState.fresh(cfg, d)
        outputs = []
        for t0 in range(0, t, cfg.chunk_len):
            t1 = min(t0 + cfg.chunk_len, t)
            if check_sparsity or check_simplex:
                before_k = state.means_k.copy()
                before_v = state.means_v.copy()
                before_c = state.counts.copy()
                before_active = state.n_active
            out, record = ovq_forward_chunk(
                state, seq.q[t0:t1], seq.k[t0:t1], seq.v[t0:t1]
            )
            outputs.append(out)
            assert int(state.counts.sum()) == state.tokens_seen  # conservation, exact
            assert state.scalars_stored() <= bound  # hard memory bound
            if check_sparsity:
                touched = set(int(a) for a in record.assignments)
                untouched = [r for r in range(before_active) if r not in touched]
                assert np.array_equal(state.means_k[untouched], before_k[untouched])
                assert np.array_equal(state.means_v[untouched], before_v[untouched])
                assert np.array_equal(state.counts[untouched], before_c[untouched])
            if check_simplex:
                # reconstruct the weights for one sampled row
                row = int(rng.integers(t1 - t0))
                logits = np.concatenate(
                    [
                        8.0 * (before_k[:before_active] @ seq.q[t0 + row])
                        + np.log(before_c[:before_active]),
                        8.0 * (seq.k[t0 : t0 + row + 1] @ seq.q[t0 + row]),
                    ]
                )
                w = np.exp(logits - logits.max())
                w /= w.sum()
                assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9
                vals = np.concatenate([before_v[:before_active], seq.v[t0 : t0 + row + 1]])
                np.testing.assert_allclose(out[row], w @ vals, atol=1e-10)
        assert int(state.counts.sum()) == t

        if i % 4 == 0:  # prefix causality, bitwise
            half = max(cfg.chunk_len, (t // 2 // cfg.chunk_len) * cfg.chunk_len)
            prefix = HeadSequence(seq.q[:half], seq.k[:half], seq.v[:half], 8.0)
            prefix_out, _ = ovq_forward_sequence(cfg, prefix)
            full_out = np.concatenate(outputs, axis=0)
            assert np.array_equal(prefix_out.o, full_out[:half])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(7, f"engine invariants over 100 streams in {elapsed:.1f}s")


def test_criterion_08_running_mean_identity():
    """Streaming up to 64 points into one centroid, one per chunk, lands on
    the arithmetic mean to 1e-12."""
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 65))
        d = int(rng.integers(2, 17))
        state = OvqState.fresh(OvqConfig(n_max=1, chunk_len=1), d)
        ks = unit_rows(rng, m, d)
        vs = rng.standard_normal((m, d))
        for i in range(m):
            absorb_chunk(state, ks[i : i + 1], vs[i : i + 1])
        assert int(state.counts[0]) == m
        worst = max(worst, float(np.max(np.abs(state.means_k[0] - ks.mean(axis=0)))))
        worst = max(worst, float(np.max(np.abs(state.means_v[0] - vs.mean(axis=0)))))
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    _report(8, f"running-mean identity, worst dev {worst:.2e}")


def test_criterion_09_exact_recall_ceiling():
    """Unit chunks with capacity in the one-centroid-per-pair regime
    (n_max = T*(T-1) >= 4T) reach perfect top-1 recall at T=256, d=64,
    beta=16 on five seeds."""
    t = 256
    n_max = t * (t - 1)
    assert n_max >= 4 * t
    mixer = MixerSpec(
        kind="ovq", beta=16.0, d=64, ovq=OvqConfig(n_max=n_max, chunk_len=1, beta=16.0)
    )
    for seed in range(5):
        row = recall_benchmark(mixer, T=t, num_probes=64, seed=seed)
        assert row.top1_accuracy == 1.0, f"seed {seed}: top1 {row.top1_accuracy}"
    _report(9, "exact-recall ceiling, top1 = 1.0 on 5 seeds")


def test_criterion_10_comparative_ordering():
    """At T=2048, d=64 over five seeds: growing cache >= clustered memory
    at n_max=T > sum-state baseline by median top-1, and clustered recall
    is nondecreasing in capacity over {T/8 .. 2T} within 2%."""
    start = time.perf_counter()
    t, d, beta = 2048, 64, 16.0
    seeds = range(5)

    def median_top1(mixer):
        return float(
            np.median([recall_benchmark(mixer, t, 128, s).top1_accuracy for s in seeds])
        )

    full = median_top1(MixerSpec(kind="full_attention", beta=beta, d=d))
    lin = median_top1(MixerSpec(kind="linear_baseline", beta=beta, d=d))
    grid = [t // 8, t // 4, t // 2, t, 2 * t]
    ovq_medians = [
        median_top1(
            MixerSpec(kind="ovq", beta=beta, d=d, ovq=OvqConfig(n_max=n, chunk_len=128, beta=beta))
        )
        for n in grid
    ]
    at_t = ovq_medians[grid.index(t)]
    assert full >= at_t, f"full {full} < clustered {at_t}"
    assert at_t > lin, f"clustered {at_t} <= baseline {lin}"
    for lo, hi in zip(ovq_medians, ovq_medians[1:]):
        assert hi >= lo - 0.02, f"capacity sweep decreased: {ovq_medians}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(
        10,
        f"ordering full {full:.2f} >= ovq {at_t:.2f} > baseline {lin:.3f}, "
        f"sweep {['%.2f' % m for m in ovq_medians]} in {elapsed:.1f}s",
    )


def test_criterion_11_state_accounting():
    """Clustered state stays below its capacity bound out to 65536 tokens
    while the growing cache scales with T; scheduled component counts are
    asserted as exact integers and against a real engine after every chunk."""
    d = 32
    cfg = OvqConfig(n_max=2048, chunk_len=128, beta=8.0)
    mixers = [
        MixerSpec(kind="full_attention", d=d),
        MixerSpec(kind="ovq", d=d, ovq=cfg),
    ]
    t_grid = [1024, 4096, 16384, 65536]
    rows = state_size_sweep(mixers, t_grid)
    by_mixer = {}
    for r in rows:
        by_mixer.setdefault(r.mixer, {})[r.T] = r.state_scalars

    full = by_mixer["full_attention"]
    for t in t_grid:
        assert full[t] == t * 2 * d
    clustered = by_mixer[f"ovq(n_max=2048,L=128)"]
    bound = 2048 * (2 * d + 1)
    assert all(v <= bound for v in clustered.values())
    # exact integers from the schedule at sampled boundaries
    for t in t_grid:
        assert clustered[t] == growth_count(t, 2048) * (2 * d + 1)
    assert clustered[65536] == 1985 * 65  # floor(65536 * 2048 / 67584) = 1985

    # engine cross-check at a moderate length, at every chunk boundary
    rng = np.random.default_rng(1011)
    seq = random_sequence(rng, 4096, d, 8.0)
    state = OvqState.fresh(cfg, d)
    actives = stepped_chunks(state, seq.k, seq.v, q=seq.q)
    assert actives == [planned_active_components(128 * c, cfg) for c in range(1, 33)]
    assert clustered[4096] == state.scalars_stored()
    _report(11, "state accounting constant vs linear, exact at sampled lengths")


def test_criterion_12_task_generators():
    """Length formulas, target counts, vocabulary safety, and determinism
    over 1000 generations per task; output-id bound checked over the whole
    coefficient grid."""
    rng = np.random.default_rng(1012)
    sp_band = 131

    for i in range(1000):
        num_pairs = int(rng.integers(2, 16))
        key_len = int(rng.integers(1, 4))
        val_len = int(rng.integers(1, 4))
        num_queries = int(rng.integers(1, num_pairs + 1))
        vocab = int(rng.integers(200, 2000))
        s = gen_basic_icr(num_pairs, key_len, val_len, vocab, num_queries, seed=i)
        assert len(s) == num_pairs * (key_len + val_len + 2) + 1 + num_queries * (
            key_len + val_len + 1
        )
        assert len(s.target_positions) == num_queries * val_len
        assert s.tokens.max() < vocab + sp_band and s.tokens.min() >= 0
        assert s == gen_basic_icr(num_pairs, key_len, val_len, vocab, num_queries, seed=i)

    for i in range(1000):
        num_keys = int(rng.integers(1, 8))
        copies = int(rng.integers(2, 5))
        key_len = int(rng.integers(1, 3))
        val_len = int(rng.integers(1, 3))
        vocab = int(rng.integers(500, 2000))
        s = gen_positional_icr(num_keys, copies, key_len, val_len, vocab, seed=i)
        assert len(s) == num_keys * copies * (key_len + val_len + 2) + 1 + copies * (
            key_len + val_len + 1
        )
        assert len(s.target_positions) == copies * val_len
        assert s.tokens.max() < vocab + sp_band
        assert s == gen_positional_icr(num_keys, copies, key_len, val_len, vocab, seed=i)

    for i in range(1000):
        num_functions = int(rng.integers(1, 129))
        num_examples = int(rng.integers(1, 12))
        io_len = int(rng.integers(1, 6))
        s = gen_icl(num_functions, num_examples, io_len, seed=i)
        assert len(s) == num_examples * (2 * io_len + 2)
        assert len(s.target_positions) == num_examples * io_len
        assert s.tokens.max() < 10000 + sp_band
        body = s.tokens[s.tokens < 10000]
        assert body.max() <= 9995
        assert s == gen_icl(num_functions, num_examples, io_len, seed=i)

    # closed-form output-id bound over the whole coefficient grid at defaults
    x_max = (10000 - 1 - 5) // 5
    assert x_max == 1998
    assert max(a * x_max + b for a in range(1, 6) for b in range(1, 6)) == 9995 < 10000
    _report(12, "task generators: lengths, targets, vocab safety, determinism")


def test_criterion_13_verify_subcommand_exit_codes():
    """The verify subcommand exits 0 on a clean build and 1 under each of
    the three injected faults, naming the check that failed."""
    base = [sys.executable, "-m", "ovq.cli", "verify", "--scale", "small", "--out", "-"]
    clean = subprocess.run(base, capture_output=True, text=True)
    assert clean.returncode == 0, clean.stderr
    assert json.loads(clean.stdout)["all_passed"] is True

    expected = {
        "count-skip": "count_conservation",
        "mask-off-by-one": "chunk_causality",
        "growth-over-alloc": "growth_schedule",
    }
    for fault, named in expected.items():
        res = subprocess.run(base + ["--inject-fault", fault], capture_output=True, text=True)
        assert res.returncode == 1, f"{fault}: exit {res.returncode}"
        assert named in res.stderr
    _report(13, "verify exit codes: clean 0, each injected fault 1")
