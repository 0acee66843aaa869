"""The benchmark's traced mode wraps named functions of the package; a refactor
that renames or removes one would silently drop per-layer metrics."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_exists():
    tracer = load_spans().Tracer(32)
    assert tracer.missing == []
    assert tracer.absent_metrics() == []
