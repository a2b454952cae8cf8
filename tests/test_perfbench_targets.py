"""The names the benchmark reads must exist in the library.

``perfbench/tracer.py`` lists the names it wraps in ``SPAN_TARGETS``, and
``perfbench/workloads.py`` reads attributes of the ``ovq`` modules it
imports. A name that is gone yields no span, or fails only inside a
benchmark run, so the check lives here. Both files are parsed, not
imported, so nothing under ``perfbench/`` is run or written. A name that
exists but that the chunk step no longer calls through also yields no
span, so the select span's calls are counted.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from ovq import OvqConfig, OvqState, engine, reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER, WORKLOADS = PERFBENCH / "tracer.py", PERFBENCH / "workloads.py"


def span_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SPAN_TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("module,attr", span_targets())
def test_span_target_resolves_in_ovq(module, attr):
    assert callable(getattr(importlib.import_module(f"ovq.{module}"), attr, None))


def workload_reads() -> list[tuple[str, ...]]:
    """Every attribute chain, such as ``("reference", "Dictionary",
    "from_keys")``, that the workloads read from a module they import with
    ``from ovq import ...``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "ovq"
        for alias in node.names
    }
    assert modules, f"no 'from ovq import' in {WORKLOADS}"
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add((node.id, *reversed(attrs)))
    return sorted(chains)


@pytest.mark.parametrize("chain", workload_reads(), ids=".".join)
def test_workload_read_resolves_in_ovq(chain):
    obj = importlib.import_module(f"ovq.{chain[0]}")
    for attr in chain[1:]:
        assert hasattr(obj, attr), f"{'.'.join(chain)}: ovq has no {attr!r} there"
        obj = getattr(obj, attr)


@pytest.mark.parametrize("with_queries", [False, True], ids=["absorb", "forward"])
def test_select_span_runs_once_per_chunk(monkeypatch, with_queries):
    """The tracer rebinds ``engine.select_new_centroids`` in the module
    namespace. Every chunk, absorbed alone or predicted first, must call it
    through that name exactly once, or the traced span reads 0."""
    calls = []
    original = engine.select_new_centroids

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "select_new_centroids", counted)
    rng = np.random.default_rng(0)
    k = rng.standard_normal((37, 4))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=5), 4)
    engine.stream_chunks(state, k, rng.standard_normal((37, 4)), q=k if with_queries else None)
    assert len(calls) == state.chunks_seen == 8


@pytest.mark.parametrize("with_queries", [False, True], ids=["absorb", "forward"])
def test_stream_checks_once_and_steps_every_chunk_unchecked(monkeypatch, with_queries):
    """``stream_chunks`` checks each stream array once, then runs every chunk
    through ``engine._chunk_step`` and ``engine.select_new_centroids`` by
    their module names, and never through the checked chunk entries. So the
    tracer's ``engine.forward_chunk`` and ``engine.absorb_chunk`` spans, and
    the chunk observers hung on them, see no stream chunk."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or original(*a))

    for name in ("_chunk_step", "select_new_centroids", "ovq_forward_chunk", "absorb_chunk"):
        counted(engine, name)
    checked = []
    original_check = reference.check_unit_rows
    monkeypatch.setattr(
        reference, "check_unit_rows", lambda m, what: checked.append(what) or original_check(m, what)
    )
    rng = np.random.default_rng(1)
    k, q = (r / np.linalg.norm(r, axis=1, keepdims=True) for r in rng.standard_normal((2, 37, 4)))
    state = OvqState.fresh(OvqConfig(n_max=8, chunk_len=5), 4)
    engine.stream_chunks(state, k, rng.standard_normal((37, 4)), q=q if with_queries else None)
    assert state.chunks_seen == 8
    assert sorted(calls) == ["_chunk_step"] * 8 + ["select_new_centroids"] * 8
    assert sorted(checked) == (["k stream", "q stream"] if with_queries else ["k stream"])
