"""The benchmark's traced mode wraps named functions of the package; a refactor
that renames or removes one would silently drop per-layer metrics."""

import importlib.util
import math
from pathlib import Path

from fixedproto.data import SynthConfig, generate_synthetic
from fixedproto.prototypes import class_orthogonal_extractor
from fixedproto.training import TrainConfig, train

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


def test_training_forward_passes_are_traced_by_role():
    # The benchmark tells a full-set forward pass from a minibatch one by the
    # row count of the third positional argument; a refactor that passed X
    # another way, or dropped a pass, would move or lose model.forward_full.
    spans = load_spans()
    ds = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=20, seed=0))
    val = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=6, seed=1))
    config = TrainConfig(epochs=3, batch_size=8, embedding_dim=4, hidden_dims=(4,), seed=0)
    steps = config.epochs * math.ceil(ds.n / config.batch_size)
    tracer = spans.Tracer(config.batch_size)
    tracer.install()
    try:
        train(ds, class_orthogonal_extractor(2, 4, seed=0), config, val=val)
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.spans)
    assert metrics["model.forward_full.calls"] == 2 * config.epochs
    assert metrics["model.forward_batch.calls"] == steps
    assert metrics["training.optimizer.calls"] == steps
