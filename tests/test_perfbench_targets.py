"""The names the traced benchmark run wraps must exist in the library.

``perfbench/tracer.py`` lists them in ``SPAN_TARGETS``. A name that is
gone yields no span there and no error, so the check lives here. The
tracer file is parsed, not imported, so nothing under ``perfbench/`` is
run or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def span_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SPAN_TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("module,attr", span_targets())
def test_span_target_resolves_in_ovq(module, attr):
    assert callable(getattr(importlib.import_module(f"ovq.{module}"), attr, None))
