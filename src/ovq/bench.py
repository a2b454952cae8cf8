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
import functools
import io
import json
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gmr
from .engine import (
    ABLATIONS,
    D_RANGE,
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
    require_physical_memory,
    stream_chunks,
    with_planned_chunks,
)
from .errors import ConfigurationError
from .reference import (
    BASELINE_EPS,
    Dictionary,
    HeadSequence,
    _QUERY_TILE,
    check_beta,
    checked_int,
    linear_attention_baseline,
    quantized_state,
    softmax_attention,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_online,
    vq_attention_quadratic,
)
from .tasks import N_SPECIALS, SpecialTokens, TokenStream

MIXER_KINDS = ("full_attention", "ovq", "vq_fixed", "linear_baseline")

RECALL_SCHEMA = "ovq-recall-report-v2"
STATE_SCHEMA = "ovq-state-report-v2"
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
        object.__setattr__(self, "d", checked_int("d", self.d, *D_RANGE))
        # vq_fixed holds vq_n centroids, in the range of an engine's n_max.
        low = 1 if self.kind == "vq_fixed" else 0
        object.__setattr__(self, "vq_n", checked_int("vq_n", self.vq_n, low, 2**32 - 1))

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


@dataclass(frozen=True)
class StateRow:
    mixer: str
    T: int
    n_max: int | None
    state_scalars: int


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _fixed_vq_dictionary(mixer: MixerSpec, keys: np.ndarray, seed: int) -> np.ndarray:
    return keys[gmr.kmeanspp_indices(keys, mixer.vq_n, seed)]


def recall_benchmark(mixer: MixerSpec, T: int, num_probes: int, seed: int) -> RecallRow:
    """Associative recall fidelity of one mixer's memory.

    T random unit-norm keys are paired with values taken from a codebook
    of T distinct unit-norm vectors and streamed through the mixer. The
    probes are exact copies of earlier keys issued after the full stream,
    so every mixer answers from its final state. Each probe output is
    decoded by nearest neighbor over the value codebook; top-1 accuracy is
    the fraction decoded to the right value. The readouts and the decode
    score probes in tiles of _QUERY_TILE rows, so beyond the [T, d] keys
    and codebook no array grows with both T and the probe count.
    """
    if num_probes < 1:
        raise ConfigurationError(f"need num_probes >= 1, got {num_probes}")
    if T < num_probes:
        raise ConfigurationError("need T >= num_probes")
    d = mixer.d
    require_physical_memory(2 * T * d * 8, f"the recall keys and codebook for T {T} and d {d}")
    rng = np.random.default_rng(seed)
    keys = unit_rows(rng, T, d)
    codebook = unit_rows(rng, T, d)
    values = codebook  # value of pair t is codebook row t
    probe_idx = rng.choice(T, size=num_probes, replace=False)
    probe_q = keys[probe_idx]

    if mixer.kind == "full_attention":
        # The key/value cache is a dictionary of T rows of count 1.
        out = count_readout(mixer.beta, probe_q, keys, np.ones(T, dtype=np.int64), values)
    elif mixer.kind == "linear_baseline":
        s = keys.T @ values
        z = keys.sum(axis=0)
        out = (probe_q @ s) / (probe_q @ z + BASELINE_EPS)[:, None]
    elif mixer.kind == "vq_fixed":
        dict_k = _fixed_vq_dictionary(mixer, keys, seed)
        counts, means_v = quantized_state(keys, values, dict_k)
        out = count_readout(mixer.beta, probe_q, dict_k, counts, means_v)
    else:
        state = OvqState.fresh(with_planned_chunks(mixer.ovq, [T]), d)
        stream_chunks(state, keys, values)
        out = dictionary_readout(state, probe_q)

    top1 = float(np.mean(_nearest_rows(out, codebook) == probe_idx))
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
    )


def _nearest_rows(x, table) -> np.ndarray:
    """Each row of ``x`` decoded to its highest-dot-product row of
    ``table``, as indices (ties to the lowest), scored in tiles of
    _QUERY_TILE rows so that no [rows, table] product is held."""
    decoded = np.empty(len(x), dtype=np.intp)
    for start in range(0, len(x), _QUERY_TILE):
        tile = slice(start, start + _QUERY_TILE)
        decoded[tile] = np.argmax(x[tile] @ table.T, axis=1)
    return decoded


def state_size_sweep(mixers, T_grid) -> list[StateRow]:
    """Live state scalars per mixer and context length, from
    ``MixerSpec.state_scalars``."""
    rows = [
        StateRow(mixer.label, T, mixer.n_max, mixer.state_scalars(T))
        for mixer in mixers
        for T in T_grid
    ]
    rows.sort(key=lambda r: (r.mixer, r.T))
    return rows


@functools.lru_cache(maxsize=1)
def token_embeddings(total_vocab: int, dim: int, seed: int):
    """Seeded id-to-vector tables. One unit-norm base table serves the
    query and key roles directly; the value role reuses the same table
    under a seeded coordinate permutation and sign flip, so value vectors
    stay unit norm but decorrelate from the key space.

    The last pair built is cached, since every stream of a run embeds with
    the same tables; both are read-only, so no caller can change what the
    next one reads. Two float64 tables that together exceed the machine's
    physical memory are refused before anything is allocated."""
    require_physical_memory(
        2 * total_vocab * dim * 8,
        f"the embedding tables for vocab_size {total_vocab - N_SPECIALS} and --dim {dim}",
    )
    rng = np.random.default_rng(seed)
    base = unit_rows(rng, total_vocab, dim)
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    values = base[:, perm] * signs[None, :]
    base.flags.writeable = values.flags.writeable = False
    return base, values


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
    require_targets(stream)
    sp = SpecialTokens(stream.vocab_size)
    qk_table, v_table = token_embeddings(sp.total_vocab, mixer.d, embedding_seed)
    x = qk_table[stream.tokens]
    seq = HeadSequence(x, x, v_table[stream.tokens], beta=mixer.beta)

    if mixer.kind == "full_attention":
        out = softmax_attention(seq).o
    elif mixer.kind == "linear_baseline":
        out = linear_attention_baseline(seq).o
    elif mixer.kind == "vq_fixed":
        out = vq_attention_linear(seq, _fixed_vq_dictionary(mixer, seq.k, embedding_seed)).o
    else:
        out = ovq_forward_sequence(mixer.ovq, seq)[0].o
    return score_task(stream, out, v_table, mixer.label, mixer.state_scalars(seq.T))


def require_targets(stream: TokenStream, name: str = "stream") -> None:
    """Refuse a stream with nothing to score: every target is IGNORE."""
    if not len(stream.target_positions):
        raise ConfigurationError(
            f"{name} has no target positions (every target is IGNORE); nothing to score"
        )


def score_task(stream: TokenStream, out, v_table, mixer: str, scalars: int) -> dict:
    """Report row for one stream: nearest-neighbor decoding of the mixer
    outputs ``out`` over the value table, scored at the target positions."""
    if v_table.shape[1] < 16:
        warnings.warn("embedding dim below 16; nearest-neighbor decoding is unreliable")
    positions = stream.target_positions
    decoded = _nearest_rows(out[positions], v_table)
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
    max_deviation: float | None
    passed: bool
    detail: str = ""


VERIFY_SIZES = {
    "small": {"instances": 5, "t_max": 96, "engine_instances": 3, "engine_t_max": 1024},
    "default": {"instances": 25, "t_max": 256, "engine_instances": 8, "engine_t_max": 4096},
    "large": {"instances": 100, "t_max": 512, "engine_instances": 20, "engine_t_max": 16384},
}


def _judged(name: str, params: dict, deviations, tol: float, detail: str = "") -> CheckResult:
    """The one judging rule of every check: the largest deviation, NaN
    kept, must be within ``tol`` and no failure ``detail`` stated. A NaN or
    infinite worst fails and reads ``None``, so the report stays strict JSON."""
    worst = float(np.max(deviations, initial=0.0))
    return CheckResult(
        name, params, worst if np.isfinite(worst) else None, worst <= tol and not detail, detail
    )


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _head_sequence(rng, t: int, d: int, beta: float) -> HeadSequence:
    """Unit q rows, then unit k rows, then standard normal v rows."""
    q, k = unit_rows(rng, t, d), unit_rows(rng, t, d)
    return HeadSequence(q, k, rng.standard_normal((t, d)), beta)


def _random_head_sequence(rng, t_max, d_max) -> HeadSequence:
    t = int(rng.integers(1, t_max + 1))
    d = int(rng.integers(1, d_max + 1))
    return _head_sequence(rng, t, d, float(rng.choice((1.0, 8.0, 32.0))))


def _check_vq_forms(rng, sizes) -> CheckResult:
    devs = []
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, sizes["t_max"], 32)
        n = int(rng.integers(1, 65))
        dict_k = unit_rows(rng, n, seq.d)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        devs.append(_max_abs(quad, vq_attention_linear(seq, dict_k).o))
        # Any chunk_len >= T runs the one window chunk_len = T runs, bitwise.
        for chunk_len in dict.fromkeys(min(c, seq.T) for c in (1, 7, 128, seq.T)):
            devs.append(_max_abs(quad, vq_attention_chunked(seq, dict_k, chunk_len).o))
    params = {"instances": sizes["instances"], "t_max": sizes["t_max"]}
    return _judged("vq_quadratic_linear_chunked", params, devs, 1e-10)


def _check_gkr(rng, sizes) -> CheckResult:
    devs = [
        gmr.verify_gkr_attention(_random_head_sequence(rng, min(sizes["t_max"], 128), 32))
        for _ in range(sizes["instances"])
    ]
    return _judged("gkr_vs_softmax_attention", {"instances": sizes["instances"]}, devs, 1e-10)


def _check_gmr_bridge(rng, sizes) -> CheckResult:
    devs = []
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, min(sizes["t_max"], 128), 16)
        n = int(rng.integers(1, 17))
        dict_k = unit_rows(rng, n, seq.d)
        counts, means_v = quantized_state(seq.k, seq.v, dict_k)
        mix = gmr.GaussianMixture(
            np.concatenate([dict_k, means_v], axis=1),
            counts / counts.sum(),
            beta=seq.beta,
        )
        q = seq.q[-1]
        soft = gmr.gmr_predict(mix, counts, q, seq.beta)
        devs.append(_max_abs(soft, gmr.gmr_predict_expectation(mix, counts, q, seq.beta)))
        devs.append(_max_abs(soft, count_readout(seq.beta, q[None, :], dict_k, counts, means_v)[0]))
    return _judged("gmr_prediction_bridge", {"instances": sizes["instances"]}, devs, 1e-10)


def _check_hard_em_kmeans(rng, sizes) -> CheckResult:
    devs = []
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
        km = gmr.batch_kmeans_step(data, np.argmax(z, axis=1), n)
        devs.append(not np.array_equal(stepped.means_joint, km))
    return _judged("hard_em_equals_kmeans", {"instances": sizes["instances"]}, devs, 0.0)


def _check_newton(rng, sizes) -> CheckResult:
    devs = []
    for _ in range(sizes["instances"]):
        t = int(rng.integers(10, 120))
        dim = int(rng.integers(2, 12))
        n = int(rng.integers(1, 9))
        data = rng.standard_normal((t, dim))
        assignments = rng.integers(0, n, size=t)
        seed = int(rng.integers(2**31))
        devs.append(gmr.verify_newton_equivalence(data, assignments, seed=seed))
    return _judged("kmeans_step_is_newton_step", {"instances": sizes["instances"]}, devs, 1e-12)


def _check_running_mean(rng, sizes) -> CheckResult:
    devs = []
    for _ in range(2 * max(2, sizes["instances"] // 4)):
        m = int(rng.integers(2, 65))
        d = int(rng.integers(2, 17))
        state = OvqState.fresh(OvqConfig(n_max=1, chunk_len=1), d)
        ks = unit_rows(rng, m, d)
        vs = rng.standard_normal((m, d))
        stream_chunks(state, ks, vs)
        devs.append(_max_abs(state.means_k[0], ks.mean(axis=0)))
        devs.append(_max_abs(state.means_v[0], vs.mean(axis=0)))
    return _judged("online_running_mean", {"instances": sizes["instances"]}, devs, 1e-12)


def _check_growth_schedule(rng, sizes, fault: str) -> CheckResult:
    detail = ""
    for _ in range(sizes["instances"]):
        n_max = int(rng.integers(2, 4096))
        ts = np.arange(0, 10 * min(n_max, 64) + 1)
        vals = np.array([growth_count(int(t), n_max) for t in ts])
        if np.any(np.diff(vals) < 0) or vals.max() > n_max:
            detail = "growth_count not monotone or above cap"
        t_total = int(rng.integers(1, 4096))
        chunk_len = int(rng.integers(1, 256))
        cfg = OvqConfig(n_max=n_max, chunk_len=chunk_len)
        total = sum(
            new_centroid_budget(tokens, min(chunk_len, t_total - tokens), c, cfg)
            for c, tokens in enumerate(range(0, t_total, chunk_len), start=1)
        )
        if total != growth_count(t_total, n_max):
            detail = f"budgets sum to {total}, schedule says {growth_count(t_total, n_max)}"
    # Realized growth on an actual stream must follow the schedule exactly
    # whenever the first chunk's budget is nonzero.
    cfg = OvqConfig(n_max=512, chunk_len=64, _fault=fault)
    rng2 = np.random.default_rng(rng.integers(2**31))
    state = OvqState.fresh(cfg, 8)
    for c in range(1, 9):
        absorb_chunk(state, unit_rows(rng2, 64, 8), rng2.standard_normal((64, 8)))
        if state.n_active != growth_count(64 * c, 512):
            detail = (
                f"after chunk {c}: {state.n_active} active, schedule says "
                f"{growth_count(64 * c, 512)}"
            )
    params = {"instances": sizes["instances"]}
    return _judged("growth_schedule", params, [bool(detail)], 0.0, detail)


def _check_engine_invariants(rng, sizes, fault: str) -> CheckResult:
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
        # Absorb-only: predict never writes what this reads; n_active never falls.
        seq, state = _head_sequence(rng, t, d, 8.0), OvqState.fresh(cfg, d)
        stream_chunks(state, seq.k, seq.v)
        if int(state.counts.sum()) != t:
            detail = f"counts sum {int(state.counts.sum())} != tokens {t}"
        if state.n_active > cfg.n_max:
            detail = "state exceeded hard memory bound"
    params = {"instances": sizes["engine_instances"], "t_max": sizes["engine_t_max"]}
    return _judged("count_conservation_and_memory_bound", params, [bool(detail)], 0.0, detail)


def _check_chunk_causality(rng, sizes, fault: str) -> CheckResult:
    # A fresh state's first chunk must reproduce plain causal attention,
    # and its outputs must not change when more chunks follow.
    devs, detail = [], ""
    for _ in range(sizes["instances"]):
        d = int(rng.integers(2, 33))
        lc = int(rng.integers(2, 65))
        cfg = OvqConfig(n_max=64, chunk_len=lc, beta=8.0, _fault=fault)
        seq = _head_sequence(rng, lc, d, 8.0)
        out, _ = ovq_forward_chunk(OvqState.fresh(cfg, d), seq.q, seq.k, seq.v)
        devs.append(_max_abs(out, softmax_attention(seq).o))
        more = _head_sequence(rng, lc, d, 8.0)
        parts = zip((seq.q, seq.k, seq.v), (more.q, more.k, more.v))
        longer = HeadSequence(*(np.concatenate(p) for p in parts), 8.0)
        long_out, _ = ovq_forward_sequence(cfg, longer)
        if not np.array_equal(out, long_out.o[:lc]):
            detail = "prefix outputs changed when more chunks followed"
    return _judged("chunk_causality", {"instances": sizes["instances"]}, devs, 1e-10, detail)


def _check_stream_oracle(rng, sizes, fault: str) -> CheckResult:
    # The engine against its per-token transcription under every ablation:
    # equal counts, bitwise equal rows, outputs within 1e-10.
    devs, differ = [], 0
    for _ in range(sizes["instances"]):
        seq = _random_head_sequence(rng, sizes["t_max"], 16)
        if rng.random() < 0.5:
            seq = HeadSequence(seq.k, seq.k, seq.v, seq.beta)
        cfg = OvqConfig(
            n_max=int(rng.integers(1, 33)),
            chunk_len=int(rng.integers(1, 65)),
            beta=seq.beta,
            ablation=ABLATIONS[int(rng.integers(len(ABLATIONS)))],
            seed=int(rng.integers(2**31)),
            _fault=fault,
        )
        out, state = ovq_forward_sequence(cfg, seq)
        oracle = vq_attention_online(seq, cfg)
        na = state.n_active
        got = (state.counts[:na], state.means_k[:na], state.means_v[:na])
        want = (oracle.counts, oracle.means_k, oracle.means_v)
        differ += na != len(oracle.counts) or not all(map(np.array_equal, got, want))
        devs.append(_max_abs(out.o, oracle.o))
    params = {"instances": sizes["instances"], "t_max": sizes["t_max"]}
    detail = f"{differ} final dictionaries differ from the oracle's" if differ else ""
    return _judged("engine_vs_stream_oracle", params, devs, 1e-10, detail)


def verify_all(seed: int = 0, sizes: str = "default", fault: str = "none") -> dict:
    """Run every cross-implementation equivalence and engine invariant.

    ``sizes`` names a ``VERIFY_SIZES`` scale. Returns a JSON-ready report
    with one entry per check. ``fault`` is the deliberate-breakage hook: it
    is threaded into the engine configuration so a verification failure can
    be demonstrated on demand.
    """
    if sizes not in VERIFY_SIZES:
        raise ConfigurationError(f"sizes must be one of {sorted(VERIFY_SIZES)}")
    size_cfg = VERIFY_SIZES[sizes]

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
        _check_stream_oracle(rng, size_cfg, fault),
    ]
    return {
        "schema": VERIFY_SCHEMA,
        "meta": {"seed": seed, "sizes": sizes, "fault": fault},
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
