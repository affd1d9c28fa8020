"""The traced benchmark run (``bench/traced.py``) wraps package functions
by module and attribute name. Every name it lists must resolve, or a
renamed function would silently drop out of ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def traced_spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = traced_spans()


def test_spans_listed():
    assert "gradients.surrogate_gradient" in SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_target_resolves(span):
    module, path = SPANS[span]
    target = importlib.import_module(f"gadpoison.{module}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
