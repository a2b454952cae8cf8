"""Benchmark harness and verification suite.

Runs sequence mixers in embedding space without any training: an
associative-recall probe over random key/value pairs, state-size
accounting across context lengths, and token-task evaluation over
generated streams. Also hosts the aggregated equivalence/invariant
checks behind the ``verify`` CLI subcommand.

All accuracy numbers here are untrained-probe numbers. They are meant for
comparing mixers against each other under identical seeds, not as task
scores of a trained model, and the reports label them as such.
"""

from __future__ import annotations

import csv
import io
import json
import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gmr
from .engine import (
    OvqConfig,
    OvqState,
    absorb_chunk,
    count_readout,
    dictionary_readout,
    growth_count,
    new_centroid_budget,
    ovq_forward_chunk,
    ovq_forward_sequence,
    planned_active_components,
    stream_chunks,
    with_planned_chunks,
)
from .errors import ConfigurationError
from .reference import (
    Dictionary,
    HeadSequence,
    check_beta,
    linear_attention_baseline,
    masked_softmax,
    softmax_attention,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_quadratic,
)
from .tasks import SpecialTokens, TokenStream

MIXER_KINDS = ("full_attention", "ovq", "vq_fixed", "linear_baseline")

RECALL_SCHEMA = "ovq-recall-report-v1"
STATE_SCHEMA = "ovq-state-report-v1"
TASK_SCHEMA = "ovq-task-report-v1"
VERIFY_SCHEMA = "ovq-verify-report-v1"


@dataclass(frozen=True)
class MixerSpec:
    """Which sequence mixer to run and with what knobs. ``ovq`` carries a
    full engine configuration, which runs with the mixer's ``beta``;
    ``vq_fixed`` is the VQ-attention baseline, quantizing against ``vq_n``
    k-means++ picks of the context keys frozen before streaming."""

    kind: str
    beta: float = 16.0
    d: int = 64
    ovq: OvqConfig | None = None
    vq_n: int = 0

    def __post_init__(self):
        if self.kind not in MIXER_KINDS:
            raise ConfigurationError(f"unknown mixer kind {self.kind!r}")
        check_beta(self.beta)
        if self.kind == "ovq":
            if self.ovq is None:
                raise ConfigurationError("ovq mixer needs an OvqConfig")
            object.__setattr__(self, "ovq", replace(self.ovq, beta=self.beta))
        if self.kind == "vq_fixed" and self.vq_n < 1:
            raise ConfigurationError("vq_fixed needs vq_n >= 1")
        if self.d < 1:
            raise ConfigurationError("d must be >= 1")

    @property
    def label(self) -> str:
        if self.kind == "ovq":
            return f"ovq(n_max={self.ovq.n_max},L={self.ovq.chunk_len})"
        if self.kind == "vq_fixed":
            return f"vq_fixed(n={self.vq_n},kmeanspp)"
        return self.kind

    def state_scalars(self, T: int) -> int:
        """Live state scalars after T tokens: T * 2d for the growing
        key/value cache, d^2 + d for the sum-state baseline, and 2d + 1 per
        dictionary component, of which ``vq_fixed`` holds ``vq_n`` and
        ``ovq`` the count its growth schedule reaches on one fresh stream."""
        if self.kind == "full_attention":
            return T * 2 * self.d
        if self.kind == "linear_baseline":
            return self.d * self.d + self.d
        n = self.vq_n if self.kind == "vq_fixed" else planned_active_components(T, self.ovq)
        return n * (2 * self.d + 1)

    @property
    def n_max(self) -> int | None:
        if self.kind == "ovq":
            return self.ovq.n_max
        if self.kind == "vq_fixed":
            return self.vq_n
        return None


@dataclass(frozen=True)
class RecallRow:
    mixer: str
    T: int
    n_max: int | None
    seed: int
    top1_accuracy: float
    mean_cosine: float
    state_scalars: int
    wall_time_ms: float


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _fixed_vq_dictionary(mixer: MixerSpec, keys: np.ndarray, seed: int) -> np.ndarray:
    return keys[gmr.kmeanspp_indices(keys, mixer.vq_n, seed)]


def _fixed_vq_state(dict_k: np.ndarray, keys: np.ndarray, values: np.ndarray):
    assignments = np.argmax(keys @ dict_k.T, axis=1)
    n = dict_k.shape[0]
    counts = np.bincount(assignments, minlength=n)
    sums = np.zeros((n, values.shape[1]))
    np.add.at(sums, assignments, values)
    means_v = np.zeros_like(sums)
    populated = counts > 0
    means_v[populated] = sums[populated] / counts[populated, None]
    return counts, means_v


def recall_benchmark(mixer: MixerSpec, T: int, num_probes: int, seed: int) -> RecallRow:
    """Associative recall fidelity of one mixer's memory.

    T random unit-norm keys are paired with values taken from a codebook
    of T distinct unit-norm vectors and streamed through the mixer. The
    probes are exact copies of earlier keys issued after the full stream,
    so every mixer answers from its final state. Each probe output is
    decoded by nearest neighbor over the value codebook; top-1 accuracy is
    the fraction decoded to the right value.
    """
    if T < num_probes:
        raise ConfigurationError("need T >= num_probes")
    d = mixer.d
    rng = np.random.default_rng(seed)
    keys = unit_rows(rng, T, d)
    codebook = unit_rows(rng, T, d)
    values = codebook  # value of pair t is codebook row t
    probe_idx = rng.choice(T, size=num_probes, replace=False)
    probe_q = keys[probe_idx]

    start = time.perf_counter()
    if mixer.kind == "full_attention":
        out = masked_softmax(mixer.beta * (probe_q @ keys.T)) @ values
    elif mixer.kind == "linear_baseline":
        s = keys.T @ values
        z = keys.sum(axis=0)
        out = (probe_q @ s) / (probe_q @ z + 1e-9)[:, None]
    elif mixer.kind == "vq_fixed":
        dict_k = _fixed_vq_dictionary(mixer, keys, seed)
        counts, means_v = _fixed_vq_state(dict_k, keys, values)
        out = count_readout(mixer.beta, probe_q, dict_k, counts, means_v)
    else:
        state = OvqState.fresh(with_planned_chunks(mixer.ovq, [T]), d)
        stream_chunks(state, keys, values)
        out = dictionary_readout(state, probe_q)
    wall_ms = (time.perf_counter() - start) * 1000.0

    decoded = np.argmax(out @ codebook.T, axis=1)
    top1 = float(np.mean(decoded == probe_idx))
    norms = np.linalg.norm(out, axis=1)
    norms[norms == 0] = 1.0
    cosines = np.sum(out * values[probe_idx], axis=1) / norms
    return RecallRow(
        mixer=mixer.label,
        T=T,
        n_max=mixer.n_max,
        seed=seed,
        top1_accuracy=top1,
        mean_cosine=float(np.mean(cosines)),
        state_scalars=mixer.state_scalars(T),
        wall_time_ms=wall_ms,
    )


def state_size_sweep(mixers, T_grid) -> list[RecallRow]:
    """Live state scalars per mixer and context length, from
    ``MixerSpec.state_scalars``. Accuracy columns are not applicable here."""
    rows = [
        RecallRow(
            mixer=mixer.label,
            T=T,
            n_max=mixer.n_max,
            seed=-1,
            top1_accuracy=float("nan"),
            mean_cosine=float("nan"),
            state_scalars=mixer.state_scalars(T),
            wall_time_ms=0.0,
        )
        for mixer in mixers
        for T in T_grid
    ]
    rows.sort(key=lambda r: (r.mixer, r.T))
    return rows


def token_embeddings(total_vocab: int, dim: int, seed: int):
    """Seeded id-to-vector tables. One unit-norm base table serves the
    query and key roles directly; the value role reuses the same table
    under a seeded coordinate permutation and sign flip, so value vectors
    stay unit norm but decorrelate from the key space."""
    rng = np.random.default_rng(seed)
    base = unit_rows(rng, total_vocab, dim)
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    return base, base[:, perm] * signs[None, :]


def token_task_eval(
    mixer: MixerSpec, stream: TokenStream, embedding_seed: int = 0
) -> dict:
    """Mean nearest-neighbor decoding accuracy at a stream's target
    positions, with token ids mapped to fixed random embeddings.

    The stream is teacher-forced: at an answer position the correct token
    is itself part of the mixer's visible input, so this measures how
    faithfully the mixer's memory preserves token identity under mixing,
    not trained task skill. Numbers are comparative across mixers only.
    """
    if mixer.d < 16:
        warnings.warn("embedding dim below 16; nearest-neighbor decoding is unreliable")
    sp = SpecialTokens(stream.vocab_size)
    qk_table, v_table = token_embeddings(sp.total_vocab, mixer.d, embedding_seed)
    toks = stream.tokens
    seq = HeadSequence(qk_table[toks], qk_table[toks], v_table[toks], beta=mixer.beta)

    if mixer.kind == "full_attention":
        out = softmax_attention(seq).o
    elif mixer.kind == "linear_baseline":
        out = linear_attention_baseline(seq).o
    elif mixer.kind == "vq_fixed":
        out = vq_attention_linear(seq, _fixed_vq_dictionary(mixer, seq.k, embedding_seed)).o
    else:
        out = ovq_forward_sequence(mixer.ovq, seq)[0].o
    return score_task(stream, out, v_table, mixer.label, mixer.state_scalars(seq.T))


def score_task(stream: TokenStream, out, v_table, mixer: str, scalars: int) -> dict:
    """Report row for one stream: nearest-neighbor decoding of the mixer
    outputs ``out`` over the value table, scored at the target positions."""
    positions = stream.target_positions
    decoded = np.argmax(out[positions] @ v_table.T, axis=1)
    return {
        "task": stream.meta.get("task", "unknown"),
        "mixer": mixer,
        "T": int(len(stream)),
        "n_targets": int(len(positions)),
        "accuracy": float(np.mean(decoded == stream.targets[positions])),
        "state_scalars": int(scalars),
        "untrained_probe": True,
    }


# ---------------------------------------------------------------------------
# Report serialization


def rows_to_csv(rows, schema: str, meta: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {schema}\n")
    buf.write(f"# meta: {json.dumps(meta, sort_keys=True)}\n")
    dicts = [asdict(r) if not isinstance(r, dict) else r for r in rows]
    if not dicts:
        return buf.getvalue()
    writer = csv.DictWriter(buf, fieldnames=list(dicts[0].keys()))
    writer.writeheader()
    for rec in dicts:
        writer.writerow(rec)
    return buf.getvalue()


def rows_to_json(rows, schema: str, meta: dict) -> str:
    dicts = [asdict(r) if not isinstance(r, dict) else r for r in rows]
    return json.dumps({"schema": schema, "meta": meta, "rows": dicts}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class CheckResult:
    name: str
    params: dict
    max_deviation: float
    passed: bool
    detail: str = ""


VERIFY_SIZES = {
    "small": {"instances": 5, "t_max": 96, "engine_instances": 3, "engine_t_max": 1024},
    "default": {"instances": 25, "t_max": 256, "engine_instances": 8, "engine_t_max": 4096},
    "large": {"instances": 100, "t_max": 512, "engine_instances": 20, "engine_t_max": 16384},
}


def _random_head_sequence(rng, t_max, d_max, betas=(1.0, 8.0, 32.0)) -> HeadSequence:
    t = int(rng.integers(1, t_max + 1))
    d = int(rng.integers(1, d_max + 1))
    beta = float(rng.choice(betas))
    return HeadSequence(
        unit_rows(rng, t, d), unit_rows(rng, t, d), rng.standard_normal((t, d)), beta
    )


def _check_vq_forms(rng, sizes) -> CheckResult:
    worst = 0.0
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, sizes["t_max"], 32)
        n = int(rng.integers(1, 65))
        dict_k = unit_rows(rng, n, seq.d)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        lin = vq_attention_linear(seq, dict_k).o
        worst = max(worst, float(np.max(np.abs(quad - lin))))
        for chunk_len in (1, 7, 128, seq.T):
            chunked = vq_attention_chunked(seq, dict_k, chunk_len).o
            worst = max(worst, float(np.max(np.abs(quad - chunked))))
    return CheckResult(
        "vq_quadratic_linear_chunked",
        {"instances": sizes["instances"], "t_max": sizes["t_max"]},
        worst,
        worst <= 1e-10,
    )


def _check_gkr(rng, sizes) -> CheckResult:
    worst = 0.0
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, min(sizes["t_max"], 128), 32)
        worst = max(worst, gmr.verify_gkr_attention(seq).max_abs_deviation)
    return CheckResult(
        "gkr_vs_softmax_attention", {"instances": sizes["instances"]}, worst, worst <= 1e-10
    )


def _check_gmr_bridge(rng, sizes) -> CheckResult:
    worst = 0.0
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, min(sizes["t_max"], 128), 16)
        n = int(rng.integers(1, 17))
        dict_k = unit_rows(rng, n, seq.d)
        _, counts, means_v = vq_attention_linear(seq, dict_k, return_state=True)
        mix = gmr.GaussianMixture(
            np.concatenate([dict_k, means_v], axis=1),
            counts / counts.sum(),
            beta=seq.beta if seq.beta > 0 else 1.0,
        )
        q = seq.q[-1]
        soft = gmr.gmr_predict(mix, counts, q, seq.beta)
        expect = gmr.gmr_predict_expectation(mix, counts, q, seq.beta)
        readout = count_readout(seq.beta, q[None, :], dict_k, counts, means_v)[0]
        worst = max(worst, float(np.max(np.abs(soft - expect))))
        worst = max(worst, float(np.max(np.abs(soft - readout))))
    return CheckResult(
        "gmr_prediction_bridge", {"instances": sizes["instances"]}, worst, worst <= 1e-10
    )


def _check_hard_em_kmeans(rng, sizes) -> CheckResult:
    exact = True
    for _ in range(sizes["instances"]):
        t = int(rng.integers(8, 64))
        dim = 2 * int(rng.integers(1, 7))
        n = int(rng.integers(1, max(2, t // 4)))
        data = rng.standard_normal((t, dim))
        mix = gmr.init_means_kmeanspp(data, n, int(rng.integers(2**31)))
        z = gmr.e_step(mix, data)
        try:
            stepped = gmr.m_step(data, z, gmr.INFINITE)
        except gmr.DegenerateComponentError:
            continue
        assignments = np.argmax(z.z, axis=1)
        km = gmr.batch_kmeans_step(data, assignments, n)
        exact = exact and np.array_equal(stepped.means_joint, km)
    return CheckResult(
        "hard_em_equals_kmeans", {"instances": sizes["instances"]}, 0.0 if exact else 1.0, exact
    )


def _check_newton(rng, sizes) -> CheckResult:
    worst = 0.0
    for _ in range(sizes["instances"]):
        t = int(rng.integers(10, 120))
        dim = int(rng.integers(2, 12))
        n = int(rng.integers(1, 9))
        data = rng.standard_normal((t, dim))
        assignments = rng.integers(0, n, size=t)
        report = gmr.verify_newton_equivalence(data, assignments, seed=int(rng.integers(2**31)))
        worst = max(worst, report.max_abs_deviation)
    return CheckResult(
        "kmeans_step_is_newton_step", {"instances": sizes["instances"]}, worst, worst <= 1e-12
    )


def _check_running_mean(rng, sizes) -> CheckResult:
    worst = 0.0
    for strict in (False, True):
        for _ in range(max(2, sizes["instances"] // 4)):
            m = int(rng.integers(2, 65))
            d = int(rng.integers(2, 17))
            cfg = OvqConfig(n_max=1, chunk_len=1, sequential_merge=strict)
            state = OvqState.fresh(cfg, d)
            ks = unit_rows(rng, m, d)
            vs = rng.standard_normal((m, d))
            for i in range(m):
                absorb_chunk(state, ks[i : i + 1], vs[i : i + 1])
            worst = max(worst, float(np.max(np.abs(state.means_k[0] - ks.mean(axis=0)))))
            worst = max(worst, float(np.max(np.abs(state.means_v[0] - vs.mean(axis=0)))))
    return CheckResult(
        "online_running_mean", {"instances": sizes["instances"]}, worst, worst <= 1e-12
    )


def _check_growth_schedule(rng, sizes, fault: str) -> CheckResult:
    ok = True
    detail = ""
    for _ in range(sizes["instances"]):
        n_max = int(rng.integers(2, 4096))
        ts = np.arange(0, 10 * min(n_max, 64) + 1)
        vals = np.array([growth_count(int(t), n_max) for t in ts])
        if np.any(np.diff(vals) < 0) or vals.max() > n_max:
            ok = False
            detail = "growth_count not monotone or above cap"
        t_total = int(rng.integers(1, 4096))
        chunk_len = int(rng.integers(1, 256))
        cfg = OvqConfig(n_max=n_max, chunk_len=chunk_len)
        total = 0
        tokens = 0
        c = 0
        while tokens < t_total:
            lc = min(chunk_len, t_total - tokens)
            c += 1
            if lc == chunk_len:
                total += new_centroid_budget(c, cfg)
            else:
                total += growth_count(tokens + lc, n_max) - growth_count(tokens, n_max)
            tokens += lc
        if total != growth_count(t_total, n_max):
            ok = False
            detail = f"budgets sum to {total}, schedule says {growth_count(t_total, n_max)}"
    # Realized growth on an actual stream must follow the schedule exactly
    # whenever the first chunk's budget is nonzero.
    cfg = OvqConfig(n_max=512, chunk_len=64, _fault=fault)
    rng2 = np.random.default_rng(rng.integers(2**31))
    state = OvqState.fresh(cfg, 8)
    for c in range(1, 9):
        absorb_chunk(state, unit_rows(rng2, 64, 8), rng2.standard_normal((64, 8)))
        if state.n_active != growth_count(64 * c, 512):
            ok = False
            detail = (
                f"after chunk {c}: {state.n_active} active, schedule says "
                f"{growth_count(64 * c, 512)}"
            )
    return CheckResult(
        "growth_schedule", {"instances": sizes["instances"]}, 0.0 if ok else 1.0, ok, detail
    )


def _check_engine_invariants(rng, sizes, fault: str) -> CheckResult:
    ok = True
    detail = ""
    for _ in range(sizes["engine_instances"]):
        t = int(rng.integers(64, sizes["engine_t_max"] + 1))
        d = int(rng.choice([8, 16, 32]))
        cfg = OvqConfig(
            n_max=int(rng.choice([64, 256, 2048])),
            chunk_len=128,
            beta=8.0,
            seed=int(rng.integers(2**31)),
            _fault=fault,
        )
        seq = HeadSequence(unit_rows(rng, t, d), unit_rows(rng, t, d), rng.standard_normal((t, d)), 8.0)
        _, state, trace = ovq_forward_sequence(cfg, seq)
        if int(state.counts.sum()) != t:
            ok = False
            detail = f"counts sum {int(state.counts.sum())} != tokens {t}"
        if state.n_active > cfg.n_max or any(
            s > cfg.n_max * (2 * d + 1) for _, s in trace
        ):
            ok = False
            detail = "state exceeded hard memory bound"
    return CheckResult(
        "count_conservation_and_memory_bound",
        {"instances": sizes["engine_instances"], "t_max": sizes["engine_t_max"]},
        0.0 if ok else 1.0,
        ok,
        detail,
    )


def _check_chunk_causality(rng, sizes, fault: str) -> CheckResult:
    # A fresh state's first chunk must reproduce plain causal attention,
    # and outputs for a prefix must not change when more chunks follow.
    worst = 0.0
    ok = True
    for _ in range(sizes["instances"]):
        d = int(rng.integers(2, 33))
        lc = int(rng.integers(2, 65))
        cfg = OvqConfig(n_max=64, chunk_len=lc, beta=8.0, _fault=fault)
        seq = HeadSequence(
            unit_rows(rng, lc, d), unit_rows(rng, lc, d), rng.standard_normal((lc, d)), 8.0
        )
        state = OvqState.fresh(cfg, d)
        out, _ = ovq_forward_chunk(state, seq.q, seq.k, seq.v)
        worst = max(worst, float(np.max(np.abs(out - softmax_attention(seq).o))))

        longer = HeadSequence(
            np.concatenate([seq.q, unit_rows(rng, lc, d)]),
            np.concatenate([seq.k, unit_rows(rng, lc, d)]),
            np.concatenate([seq.v, rng.standard_normal((lc, d))]),
            8.0,
        )
        short_out, _, _ = ovq_forward_sequence(cfg, seq)
        long_out, _, _ = ovq_forward_sequence(cfg, longer)
        if not np.array_equal(short_out.o, long_out.o[:lc]):
            ok = False
    passed = ok and worst <= 1e-10
    return CheckResult(
        "chunk_causality", {"instances": sizes["instances"]}, worst, passed,
        "" if ok else "prefix outputs changed when more chunks followed",
    )


def _check_simplex_and_sparsity(rng, sizes, fault: str) -> CheckResult:
    ok = True
    worst = 0.0
    detail = ""
    for _ in range(sizes["instances"]):
        d = int(rng.integers(2, 17))
        cfg = OvqConfig(n_max=32, chunk_len=16, beta=8.0, _fault=fault)
        state = OvqState.fresh(cfg, d)
        for _ in range(4):
            q = unit_rows(rng, 16, d)
            k = unit_rows(rng, 16, d)
            v = rng.standard_normal((16, d))
            before_k = state.means_k.copy()
            before_v = state.means_v.copy()
            before_c = state.counts.copy()
            before_active = state.n_active
            out, record = ovq_forward_chunk(state, q, k, v)

            # Independent per-row reconstruction of the prediction weights:
            # dictionary columns always visible with log-count bias, chunk
            # columns visible up to and including the query's own position.
            for i in range(q.shape[0]):
                logits = []
                vals = []
                for n in range(before_active):
                    logits.append(8.0 * float(q[i] @ before_k[n]) + np.log(before_c[n]))
                    vals.append(before_v[n])
                for j in range(i + 1):
                    logits.append(8.0 * float(q[i] @ k[j]))
                    vals.append(v[j])
                logits = np.array(logits)
                w = np.exp(logits - logits.max())
                w /= w.sum()
                if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                    ok = False
                    detail = "prediction weights left the simplex"
                worst = max(worst, float(np.max(np.abs(out[i] - w @ np.array(vals)))))

            touched = set(int(i) for i in record.assignments)
            untouched = [i for i in range(before_active) if i not in touched]
            if untouched and not (
                np.array_equal(state.means_k[untouched], before_k[untouched])
                and np.array_equal(state.means_v[untouched], before_v[untouched])
                and np.array_equal(state.counts[untouched], before_c[untouched])
            ):
                ok = False
                detail = "untouched dictionary rows changed"
    passed = ok and worst <= 1e-10
    return CheckResult(
        "prediction_simplex_and_sparse_update",
        {"instances": sizes["instances"]},
        worst,
        passed,
        detail,
    )


def verify_all(seed: int = 0, sizes: str | dict = "default", fault: str = "none") -> dict:
    """Run every cross-implementation equivalence and engine invariant.

    Returns a JSON-ready report with one entry per check. ``fault`` is the
    deliberate-breakage hook: it is threaded into the engine configuration
    so a verification failure can be demonstrated on demand.
    """
    if isinstance(sizes, str):
        if sizes not in VERIFY_SIZES:
            raise ConfigurationError(f"sizes must be one of {sorted(VERIFY_SIZES)}")
        size_name, size_cfg = sizes, VERIFY_SIZES[sizes]
    else:
        size_name, size_cfg = "custom", dict(sizes)

    rng = np.random.default_rng(seed)
    checks = [
        _check_vq_forms(rng, size_cfg),
        _check_gkr(rng, size_cfg),
        _check_gmr_bridge(rng, size_cfg),
        _check_hard_em_kmeans(rng, size_cfg),
        _check_newton(rng, size_cfg),
        _check_running_mean(rng, size_cfg),
        _check_growth_schedule(rng, size_cfg, fault),
        _check_engine_invariants(rng, size_cfg, fault),
        _check_chunk_causality(rng, size_cfg, fault),
        _check_simplex_and_sparsity(rng, size_cfg, fault),
    ]
    return {
        "schema": VERIFY_SCHEMA,
        "meta": {"seed": seed, "sizes": size_name, "fault": fault},
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
