"""Benchmark of the ovq library, run from the repository root:

    python3 perfbench/run.py --workload icr-forward --seed 1 --seconds 30 --trace 0

Workloads: icr-forward, recall-absorb, oracle-verify (see README.md in this
directory). ``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` gives the per-layer metrics from a traced half of the run,
and the tracing overhead against an untraced half. ``--size tiny`` and
``--fault`` exist for the benchmark's own self-test.

Standard output ends with two JSON lines. The first is a report: the
workload's named metrics in raw wall clock with units, the error rate,
failures, sample counts, the configuration that ran and machine meta. The
second is the result ``{"correct", "attempted", "failed", "metrics"}``,
whose times are scaled to the speed probe's reference (see workloads.py).
The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Spelled out here because workloads.py imports numpy, which has to wait
# until pin_blas_threads has run.
WORKLOAD_NAMES = ("icr-forward", "recall-absorb", "oracle-verify")
FAULTS = ("none", "mask_off_by_one", "count_skip", "growth_over_alloc")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, which is within nproc everywhere. The engine's products
# are small (at most 128 x 2048 x 64); on a shared 2-core box a second
# thread made absorb passes swing by +-15% from pass to pass against +-3%
# with one, and its spin-waiting doubled the process CPU time.
BLAS_THREADS = 1
SETUP_REPS = 3
IMPORT_REPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import ovq; print(time.perf_counter() - t)"


def pin_blas_threads() -> None:
    """Fix the BLAS thread count before numpy is imported. See BLAS_THREADS."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_effect() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_meta(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads_in_effect(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Median wall time of ``import ovq`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None) -> None:
    """Run whole passes until ``seconds`` have elapsed (at least one)."""
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = workload.passes + 1
        try:
            workload.run_pass()
        except Exception as exc:  # a failed program call is a counted failure
            workload.outcome.error(exc)
        if time.perf_counter() - start >= seconds:
            return


def trace_metrics(tracer, counts, passes: int, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced set-up plus one average traced pass."""
    per_pass = 1.0 / max(passes, 1)
    weight = lambda run_id: 1.0 if run_id == "setup" else per_pass  # noqa: E731
    metrics = {}
    for name, agg in tracer.summary(weight).items():
        metrics[f"{name}.ms"] = (agg["ms"], "ms")
        metrics[f"{name}.self_ms"] = (agg["self_ms"], "ms")
        metrics[f"{name}.calls"] = (agg["calls"], "count")
    setup, passes_total = counts.totals["setup"], counts.totals["pass"]
    total = {k: setup[k] + passes_total[k] * per_pass for k in counts.NAMES}
    metrics["engine.tokens"] = (total["tokens"], "count")
    metrics["engine.seeded"] = (total["seeded"], "count")
    metrics["engine.merge_share"] = (
        (total["tokens"] - total["seeded"]) / total["tokens"] if total["tokens"] else 0.0, "ratio"
    )
    metrics["engine.fill"] = (counts.fill, "ratio")
    metrics["engine.predict.flops_computed"] = (total["flops"], "flop")
    metrics["engine.predict.bytes_computed"] = (total["bytes"], "B")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--fault", choices=FAULTS, default="none")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ovq" / "__init__.py").is_file():
        print(f"error: the ovq package is not at {ROOT / 'src' / 'ovq'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    from workloads import WORKLOADS, median

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = tracer_mod.Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.size, args.fault, workdir, tracer)
    try:
        import_s, _, import_slowdown = workload.timed(import_seconds)
        workload.open()
        setup_s, scaled_setup_s = [], []
        for _ in range(SETUP_REPS):
            _, elapsed, slowdown = workload.timed(workload.setup)
            setup_s.append(elapsed)
            scaled_setup_s.append(elapsed / slowdown)
        if args.trace:
            measure(workload, args.seconds / 2)
            untraced = len(workload.scaled_pass_s)
            counts = tracer_mod.ChunkCounts(tracer)
            tracer.install()
            try:
                tracer.run_id = "setup"
                workload.setup()
                measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            # One file per workload, so repeated traced runs do not pile up.
            tracer.write(out_dir / f"spans-{args.workload}.jsonl")
        else:
            measure(workload, args.seconds)
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = workload.outcome
    named = {
        "setup_s": (import_s + median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (outcome.failed / max(outcome.attempted, 1), "ratio"),
        "pass_s": (median(workload.pass_s), "s"),
        **workload.named_metrics(),
    }
    if args.trace:
        untraced_s = median(workload.scaled_pass_s[:untraced])
        traced_s = median(workload.scaled_pass_s[untraced:])
        overhead = (traced_s / untraced_s - 1.0) * 100.0 if untraced_s and traced_s else 0.0
        traced_passes = len(workload.scaled_pass_s) - untraced
        metrics = trace_metrics(tracer, counts, traced_passes, overhead)
    else:
        metrics = {
            "setup_s": (import_s / import_slowdown + median(scaled_setup_s), "s"),
            "peak_rss_mb": named["peak_rss_mb"],
            "tok_s": (median(workload.scaled_tok_s), "tok/s"),
            "pass_s": (median(workload.scaled_pass_s), "s"),
            "readout_cos": (median(workload.cos), "ratio"),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "fault": args.fault,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {
            "passes": workload.passes,
            "tok_s": len(workload.tok_s),
            "setup_reps": SETUP_REPS,
        },
        "slowdown": {
            "median": median(workload.slowdowns),
            "min": min(workload.slowdowns),
            "max": max(workload.slowdowns),
        },
        "failures": outcome.failures,
        "missing_spans": tracer.missing,
        "config": workload.configs(),
        "meta": machine_meta(nproc),
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
