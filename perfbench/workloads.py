"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` (which
also makes the warm-up call), then ``run_pass`` repeats one fixed unit of
work and checks its outputs. The program only ever receives generated
arrays and streams; every correctness check runs with tracing suspended
and outside the timed regions.

- icr-forward: the ``ovq run`` path. Key-value recall streams are scored
  with ``bench.token_task_eval`` in float64 and float32. Prediction does
  most of the work and q is k.
- recall-absorb: write-only streaming through ``engine.absorb_chunk`` with
  short chunks, then a snapshot round trip and a dictionary readout. No
  prediction runs.
- oracle-verify: ``ovq verify --scale default`` in process, plus a
  cross-check of the four reference attention forms. The 64-bit oracles
  do most of the work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time

import numpy as np

from ovq import bench, cli, engine, reference, state_io, tasks
from tracer import replace_everywhere, restore

D = 64
BETA = 16.0
# The three quantized-key forms are exact transcriptions of one another.
FORM_ATOL = 1e-10
# float32 against float64 on the same stream. Before the dictionary exists
# (the first chunk) the two differ only by rounding: float32 keeps ~7
# digits and beta=16 turns that into ~1e-6 on outputs that are convex
# combinations of unit vectors, so 1e-4 leaves headroom. Later, a rounding
# difference can flip a near-tie in seeding or assignment (token ids
# repeat, so exact ties are common) and the two dictionaries drift apart
# by design; deviations of 2e-2 on single rows occur. Over a whole stream
# the mean deviation stays below 4e-5, while a broken float32 path moves
# it to ~1e-1, hence the looser mean bound.
F32_FIRST_CHUNK_ATOL = 1e-4
F32_MEAN_ATOL = 1e-3


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def clustered(rng: np.random.Generator, centers: np.ndarray, labels, noise: float) -> np.ndarray:
    """Unit rows scattered around ``centers[labels]``; ``noise`` is the
    expected norm of the offset relative to the unit center."""
    d = centers.shape[1]
    g = centers[labels] + noise * rng.standard_normal((len(labels), d)) / np.sqrt(d)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def mean_cosine(out: np.ndarray, target: np.ndarray) -> float:
    norms = np.linalg.norm(out, axis=1) * np.linalg.norm(target, axis=1)
    return float(np.mean(np.sum(out * target, axis=1) / norms))


def median(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


class Outcome:
    """Operations attempted and failed. An operation is one program call
    (a scored stream, an absorbed chunk, a verify run, ...) or one
    correctness check; a call that raises or a check that fails is a
    failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ran(self, n: int = 1) -> None:
        self.attempted += n

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def error(self, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{type(exc).__name__}: {exc}")


# This box's speed drifts: a fixed pure-Python loop took 36-59 ms per 4 s
# window within one minute, and whole-run medians of the oracle pass moved
# by 30% between runs minutes apart, in wall time and CPU time alike. So
# each timed program call is bracketed by a SpeedProbe, and the gated times
# are scaled by the probe's slowdown against its reference. The probe never
# runs ovq code, so a change to ovq cannot move it.
class SpeedProbe:
    """Fixed pieces of CPU work, one per kind of work the workloads do:

    - interp: a pure-Python loop (interpreter dispatch);
    - small: numpy calls on 64-wide vectors, the per-token pattern of the
      reference oracles;
    - gemm: float64 products of the engine's chunk shape.

    Different calls drift with different parts (README.md has the
    measurements), so each workload names the parts that track its calls.
    """

    # Times of each part on a calm 2-core box (numpy 2.4.6, OpenBLAS 0.3.31,
    # one thread): scaled times read as raw wall clock there.
    REF_S = {"interp": 0.006, "small": 0.010, "gemm": 0.011}

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.ref_s = sum(self.REF_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self.chunk = rng.standard_normal((128, D))
        self.dictionary = rng.standard_normal((2048, D))
        self.rows = rng.standard_normal((256, D))
        self.query = rng.standard_normal(D)

    def _interp(self) -> None:
        acc = 0
        for i in range(100_000):
            acc += i * i

    def _small(self) -> None:
        for _ in range(1000):
            logits = self.rows @ self.query
            w = np.exp(logits - logits.max())
            w /= w.sum()
            int(np.argmax(w))

    def _gemm(self) -> None:
        for _ in range(20):
            self.chunk @ self.dictionary.T

    def __call__(self) -> float:
        """The slowdown now: probe time over its reference time."""
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, "_" + part)()
        return (time.perf_counter() - start) / self.ref_s


class Workload:
    """One workload. ``run_pass`` repeats a fixed unit of work; its program
    time is the sum of the ``timed`` calls in it, raw and scaled."""

    name = ""
    SIZES: dict = {}
    PROBE: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, fault: str, workdir: str, tracer):
        self.seed = seed
        self.size = self.SIZES[size]
        self.fault = fault
        self.workdir = workdir
        self.tracer = tracer
        self.outcome = Outcome()
        self.probe = SpeedProbe(self.PROBE)
        self.passes = 0
        self.pass_s: list[float] = []
        self.scaled_pass_s: list[float] = []
        self.tok_s: list[float] = []
        self.scaled_tok_s: list[float] = []
        self.slowdowns: list[float] = []
        self.cos: list[float] = []
        self._in_pass = [0.0, 0.0]

    def timed(self, fn, *args, probe: SpeedProbe | None = None):
        """Call ``fn`` between two runs of a speed probe (the workload's own
        by default). Returns its result, the raw seconds and the slowdown."""
        probe = probe or self.probe
        before = probe()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        slowdown = (before + probe()) / 2
        self.slowdowns.append(slowdown)
        self._in_pass[0] += elapsed
        self._in_pass[1] += elapsed / slowdown
        return result, elapsed, slowdown

    def rate(self, tokens: int, elapsed: float, slowdown: float) -> None:
        self.tok_s.append(tokens / elapsed)
        self.scaled_tok_s.append(tokens / elapsed * slowdown)

    def run_pass(self) -> None:
        self._in_pass = [0.0, 0.0]
        self.passes += 1
        self._run_pass()
        self.pass_s.append(self._in_pass[0])
        self.scaled_pass_s.append(self._in_pass[1])

    def open(self) -> None:
        """Install what the workload needs around the program; undone by close."""

    def close(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def _run_pass(self) -> None:
        raise NotImplementedError

    def named_metrics(self) -> dict:
        """The workload's own metrics, by name: (value, unit), raw wall clock."""
        raise NotImplementedError

    def configs(self) -> dict:
        """The configuration that actually ran."""
        raise NotImplementedError


class IcrForward(Workload):
    name = "icr-forward"
    SIZES = {"full": {"streams": 4, "num_pairs": 900}, "tiny": {"streams": 2, "num_pairs": 30}}
    DTYPES = ("float64", "float32")
    PROBE = ("interp", "gemm")
    N_MAX = 2048
    CHUNK_LEN = 128

    def __init__(self, *args):
        super().__init__(*args)
        self.mixers = {
            dt: bench.MixerSpec(
                kind="ovq",
                beta=BETA,
                d=D,
                ovq=engine.OvqConfig(
                    n_max=self.N_MAX,
                    chunk_len=self.CHUNK_LEN,
                    beta=BETA,
                    dtype=dt,
                    _fault=self.fault,
                ),
            )
            for dt in self.DTYPES
        }
        self.f32_tok_s: list[float] = []
        self.ran_configs: dict = {}
        self._captured: list = []
        self._undo: list = []

    def open(self) -> None:
        # token_task_eval returns only scores; keep the outputs of the
        # sequence forward it runs so they can be checked.
        forward = engine.ovq_forward_sequence

        def capturing(config, seq):
            result = forward(config, seq)
            self._captured.append((config, result[0].o))
            return result

        self._undo = replace_everywhere(forward, capturing)

    def close(self) -> None:
        restore(self._undo)

    def setup(self) -> None:
        n = self.size["streams"]
        seeds = [int(s) for s in np.random.SeedSequence(self.seed).generate_state(n + 1)]
        made = [tasks.gen_basic_icr(num_pairs=self.size["num_pairs"], seed=s) for s in seeds[:n]]
        path = os.path.join(self.workdir, "streams.jsonl")
        tasks.save_streams(made, path)
        self.streams = tasks.load_streams(path)
        self.outcome.check(self.streams == made, "stream file round trip changed the streams")
        sp = tasks.SpecialTokens(made[0].vocab_size)
        self.qk_table, self.v_table = bench.token_embeddings(sp.total_vocab, D, 0)
        warm = tasks.gen_basic_icr(num_pairs=50, seed=seeds[n])
        for dt in self.DTYPES:
            bench.token_task_eval(self.mixers[dt], warm)
        self.outcome.ran(n + 3 + len(self.DTYPES))
        self._captured.clear()

    def _score(self, stream) -> dict:
        """Score one stream in each dtype: (report, output, config, seconds) per dtype."""
        scored = {}
        for dt in self.DTYPES:
            start = time.perf_counter()
            report = bench.token_task_eval(self.mixers[dt], stream)
            elapsed = time.perf_counter() - start
            config, out = self._captured.pop()
            scored[dt] = (report, out, config, elapsed)
        return scored

    def _run_pass(self) -> None:
        cosines = []
        for i, stream in enumerate(self.streams):
            scored, _, slowdown = self.timed(self._score, stream)
            self.outcome.ran(len(scored))
            self.rate(len(stream), scored["float64"][3], slowdown)
            self.f32_tok_s.append(len(stream) / scored["float32"][3])
            outs = {dt: out for dt, (_, out, _, _) in scored.items()}
            with self.tracer.suspended():
                for dt, (report, out, config, _) in scored.items():
                    self.ran_configs[dt] = dataclasses.asdict(config)
                    self.outcome.check(
                        report["accuracy"] == 1.0,
                        f"stream {i} {dt}: teacher-forced accuracy {report['accuracy']} != 1.0",
                    )
                    self.outcome.check(
                        np.all(np.isfinite(out)), f"stream {i} {dt}: non-finite output"
                    )
                cosines.append(self._check_stream(i, stream, outs))
        self.cos.append(float(np.mean(cosines)))

    def _check_stream(self, i, stream, outs) -> float:
        dev = np.abs(outs["float32"] - outs["float64"])
        first, mean = float(np.max(dev[: self.CHUNK_LEN])), float(np.mean(dev))
        self.outcome.check(
            first <= F32_FIRST_CHUNK_ATOL, f"stream {i}: float32 first chunk deviates {first:.3e}"
        )
        self.outcome.check(mean <= F32_MEAN_ATOL, f"stream {i}: float32 mean deviation {mean:.3e}")
        # A fresh state's first chunk is plain causal softmax attention.
        toks = stream.tokens[: self.CHUNK_LEN]
        qk = self.qk_table[toks]
        first = reference.HeadSequence(qk, qk, self.v_table[toks], BETA)
        ref = reference.softmax_attention(first).o
        dev = float(np.max(np.abs(outs["float64"][: len(toks)] - ref)))
        self.outcome.check(
            dev <= FORM_ATOL, f"stream {i}: first chunk deviates {dev:.3e} from softmax"
        )
        pos = stream.target_positions
        return mean_cosine(outs["float64"][pos], self.v_table[stream.targets[pos]])

    def named_metrics(self) -> dict:
        return {
            "fwd_tok_s": (median(self.tok_s), "tok/s"),
            "fwd_f32_tok_s": (median(self.f32_tok_s), "tok/s"),
        }

    def configs(self) -> dict:
        return self.ran_configs


class RecallAbsorb(Workload):
    name = "recall-absorb"
    SIZES = {
        "full": {"T": 65536, "clusters": 512, "probes": 1024, "n_max": 2048},
        "tiny": {"T": 2048, "clusters": 32, "probes": 64, "n_max": 256},
    }
    CHUNK_LEN = 32
    PROBE = ("small", "gemm")
    # Key noise around the cluster direction, as a share of its norm. At
    # 1.5 the probes decode to their cluster about 93% of the time: far from
    # both 0 and 1, so recall can visibly move either way.
    NOISE = 1.5

    def __init__(self, *args):
        super().__init__(*args)
        self.config = engine.OvqConfig(
            n_max=self.size["n_max"], chunk_len=self.CHUNK_LEN, beta=BETA, _fault=self.fault
        )
        self.p50_ms: list[float] = []
        self.p99_ms: list[float] = []
        self.restore_ms: list[float] = []
        self.top1: list[float] = []
        self.ran_config: dict = {}

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.seed)
        centers = unit_rows(rng, s["clusters"], D)
        # Values are tied to clusters, so probes decode against this small
        # codebook rather than a T-row table.
        self.codebook = unit_rows(rng, s["clusters"], D)
        labels = rng.integers(0, s["clusters"], s["T"])
        self.keys = clustered(rng, centers, labels, self.NOISE)
        self.values = self.codebook[labels]
        self.probe_labels = rng.integers(0, s["clusters"], s["probes"])
        self.probes = clustered(rng, centers, self.probe_labels, self.NOISE)
        warm = engine.OvqState.fresh(self.config, D)
        L = self.CHUNK_LEN
        for a in range(0, min(s["T"], 64 * L), L):
            engine.absorb_chunk(warm, self.keys[a : a + L], self.values[a : a + L])
            self.outcome.ran()
        engine.dictionary_readout(warm, self.probes)
        self.outcome.ran()

    def _stream_and_restore(self, state, path):
        T, L = self.size["T"], self.CHUNK_LEN
        lat = np.empty(-(-T // L))
        start = time.perf_counter()
        for i, a in enumerate(range(0, T, L)):
            t = time.perf_counter()
            engine.absorb_chunk(state, self.keys[a : a + L], self.values[a : a + L])
            lat[i] = time.perf_counter() - t
        absorb_s = time.perf_counter() - start
        state_io.save_state(state, path)
        start = time.perf_counter()
        loaded = state_io.load_state(path)
        out = engine.dictionary_readout(loaded, self.probes)
        return lat, absorb_s, time.perf_counter() - start, loaded, out

    def _run_pass(self) -> None:
        T = self.size["T"]
        state = engine.OvqState.fresh(self.config, D)
        path = os.path.join(self.workdir, "state.ovqs")
        (lat, absorb_s, restore_s, loaded, out), _, slowdown = self.timed(
            self._stream_and_restore, state, path
        )
        self.outcome.ran(len(lat) + 3)
        self.rate(T, absorb_s, slowdown)
        self.p50_ms.append(float(np.percentile(lat, 50)) * 1e3)
        self.p99_ms.append(float(np.percentile(lat, 99)) * 1e3)
        self.restore_ms.append(restore_s * 1e3)
        self.ran_config = dataclasses.asdict(loaded.config)

        with self.tracer.suspended():
            total = int(state.counts.sum())
            self.outcome.check(total == T, f"counts sum to {total}, {T} tokens absorbed")
            planned = engine.planned_active_components(T, self.config)
            self.outcome.check(
                state.n_active == planned, f"{state.n_active} active, schedule plans {planned}"
            )
        with self.tracer.suspended():
            in_memory = engine.dictionary_readout(state, self.probes)
            self.outcome.check(
                np.array_equal(out, in_memory),
                "readout from the reloaded snapshot differs from memory",
            )
            decoded = np.argmax(out @ self.codebook.T, axis=1)
            self.top1.append(float(np.mean(decoded == self.probe_labels)))
            self.cos.append(mean_cosine(out, self.codebook[self.probe_labels]))

    def named_metrics(self) -> dict:
        return {
            "absorb_tok_s": (median(self.tok_s), "tok/s"),
            "absorb_chunk_p50_ms": (median(self.p50_ms), "ms"),
            "absorb_chunk_p99_ms": (median(self.p99_ms), "ms"),
            "restore_readout_ms": (median(self.restore_ms), "ms"),
            "recall_top1": (median(self.top1), "ratio"),
        }

    def configs(self) -> dict:
        return {"absorb": self.ran_config}


class OracleVerify(Workload):
    name = "oracle-verify"
    SIZES = {
        "full": {"T": 2048, "dict": 256, "scale": "default"},
        "tiny": {"T": 256, "dict": 32, "scale": "small"},
    }
    CHUNK_LEN = 128
    NOISE = 0.5
    # verify is dominated by small numpy calls; the cross-check adds the
    # T x T products of the quadratic forms.
    PROBE = ("small", "gemm")
    VERIFY_PROBE = ("small",)
    # verify's own seed draws its instance sizes, and its time varies by 13%
    # (CV) from one seed to the next. Every pass runs the CLI's default
    # seed, so verify time does not depend on the workload seed; that seed
    # drives the cross-check inputs.
    VERIFY_SEED = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.verify_probe = SpeedProbe(self.VERIFY_PROBE)
        self.verify_s: list[float] = []
        self.verify_meta: dict = {}

    def _verify(self, scale: str, seed: int):
        argv = ["verify", "--scale", scale, "--seed", str(seed)]
        if self.fault != "none":
            argv += ["--inject-fault", self.fault.replace("_", "-")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        self.outcome.ran()
        return code, out.getvalue()

    def _forms(self, seq, dict_k):
        self.outcome.ran(4)
        return (
            reference.softmax_attention(seq).o,
            reference.vq_attention_quadratic(seq, reference.Dictionary.from_keys(dict_k)).o,
            reference.vq_attention_linear(seq, dict_k).o,
            reference.vq_attention_chunked(seq, dict_k, self.CHUNK_LEN).o,
        )

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        T, n = self.size["T"], self.size["dict"]
        self.dict_k = unit_rows(rng, n, D)
        # Queries and keys lie near dictionary rows, so quantization keeps
        # most of the attention pattern (cosine to softmax ~0.92).
        q, k = (clustered(rng, self.dict_k, rng.integers(0, n, T), self.NOISE) for _ in range(2))
        self.seq = reference.HeadSequence(q, k, rng.standard_normal((T, D)), BETA)
        self.outcome.ran()
        self._verify("small", self.VERIFY_SEED)
        n = min(T, 256)
        warm = reference.HeadSequence(self.seq.q[:n], self.seq.k[:n], self.seq.v[:n], BETA)
        self._forms(warm, self.dict_k)

    def _run_pass(self) -> None:
        (code, text), elapsed, _ = self.timed(
            self._verify, self.size["scale"], self.VERIFY_SEED, probe=self.verify_probe
        )
        self.verify_s.append(elapsed)
        with self.tracer.suspended():
            self.outcome.check(code == 0, f"verify exited {code}")
            if text:
                self.verify_meta = json.loads(text)["meta"]

        forms, elapsed, slowdown = self.timed(self._forms, self.seq, self.dict_k)
        soft, quad, lin, chunked = forms
        self.rate(self.seq.T, elapsed, slowdown)
        with self.tracer.suspended():
            self.outcome.check(np.all(np.isfinite(soft)), "softmax_attention output not finite")
            for label, other in (("linear", lin), ("chunked", chunked)):
                dev = float(np.max(np.abs(quad - other)))
                self.outcome.check(
                    dev <= FORM_ATOL, f"{label} form deviates {dev:.3e} from quadratic"
                )
            self.cos.append(mean_cosine(quad, soft))

    def named_metrics(self) -> dict:
        return {
            "verify_s": (median(self.verify_s), "s"),
            "oracle_tok_s": (median(self.tok_s), "tok/s"),
        }

    def configs(self) -> dict:
        return {
            "verify": self.verify_meta,
            "cross_check": {"T": self.size["T"], "d": D, "dict_rows": self.size["dict"],
                            "chunk_len": self.CHUNK_LEN, "beta": BETA},
        }


WORKLOADS = {w.name: w for w in (IcrForward, RecallAbsorb, OracleVerify)}
