"""Self-test of the benchmark, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selftest.py

Each workload's checks must trip on an injected engine fault, a clean run
must pass, and every metric BENCHMARK.json names must be printed with its
unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "icr-forward": {"fwd_tok_s", "fwd_f32_tok_s"},
    "recall-absorb": {
        "absorb_tok_s",
        "absorb_chunk_p50_ms",
        "absorb_chunk_p99_ms",
        "restore_readout_ms",
        "recall_top1",
    },
    "oracle-verify": {"verify_s", "oracle_tok_s"},
}

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
import tracer as tracer_mod  # noqa: E402


def run(workload: str, trace: int = 0, fault: str = "none", cwd: Path = ROOT):
    done = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", "--fault", fault,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def assert_metrics(result: dict, listed: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def assert_named(report: dict, workload: str) -> None:
    named = report["named_metrics"]
    assert set(named) == {"setup_s", "peak_rss_mb", "error_rate", "pass_s"} | NAMED[workload]
    assert all(isinstance(m["unit"], str) and m["unit"] for m in named.values())


@pytest.mark.parametrize(
    "workload,fault",
    [
        ("icr-forward", "mask_off_by_one"),
        ("recall-absorb", "count_skip"),
        ("oracle-verify", "growth_over_alloc"),
    ],
)
def test_injected_fault_trips_the_checks(workload, fault):
    done = run(workload, fault=fault)
    report, result = parse(done)
    assert done.returncode != 0
    assert result["correct"] is False and result["failed"] > 0
    assert report["named_metrics"]["error_rate"]["value"] > 0
    assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes_and_prints_every_metric(workload, trace):
    done = run(workload, trace=trace)
    report, result = parse(done)
    assert done.returncode == 0, report["failures"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["named_metrics"]["error_rate"]["value"] == 0
    assert_metrics(result, SPEC["per_layer" if trace else "end_to_end"])
    assert_named(report, workload)
    assert report["meta"]["blas_threads"] <= report["meta"]["nproc"]
    if trace:
        assert report["missing_spans"] == []


def test_refuses_to_run_without_the_program():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run("icr-forward", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_child_spans():
    tracer = tracer_mod.Tracer()
    tracer.spans = [
        ("engine.forward_chunk", 0.0, 0.010, -1, 0),
        ("engine.absorb_chunk", 0.002, 0.005, 0, 0),
        ("engine.select_new_centroids", 0.003, 0.004, 1, 0),
    ]
    summary = tracer.summary()
    assert summary["engine.forward_chunk"]["self_ms"] == pytest.approx(7.0)
    assert summary["engine.absorb_chunk"]["self_ms"] == pytest.approx(2.0)
    assert summary["engine.select_new_centroids"]["calls"] == 1


def test_wraps_every_namespace_and_tolerates_a_missing_function(monkeypatch):
    import ovq.bench
    import ovq.engine
    import ovq.gmr

    original = ovq.engine.absorb_chunk
    monkeypatch.delattr(ovq.gmr, "gmr_predict")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert ovq.engine.absorb_chunk is not original
        assert ovq.bench.absorb_chunk is ovq.engine.absorb_chunk
        assert tracer.missing == ["gmr.gmr_predict"]
    finally:
        tracer.uninstall()
    assert ovq.engine.absorb_chunk is original and ovq.bench.absorb_chunk is original
