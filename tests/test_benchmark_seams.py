"""The benchmark's traced mode wraps named functions of the package; a refactor
that renames or removes one would silently drop per-layer metrics."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from fixedproto.cli import main
from fixedproto.data import SynthConfig, config_to_doc, generate_synthetic, load_table, split
from fixedproto.prototypes import FactorCodedExtractor, class_orthogonal_extractor, fit_factor_coder
from fixedproto.training import TrainConfig, train, train_runs

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


def extractor_for(kind, ds, embedding_dim):
    if kind == "class-orthogonal":
        return class_orthogonal_extractor(ds.class_count, embedding_dim, seed=0)
    return FactorCodedExtractor(fit_factor_coder(ds), embedding_dim)


@pytest.mark.parametrize("kind", ["class-orthogonal", "factor-coded"])
def test_training_forward_passes_are_traced_by_role(kind):
    # The benchmark tells a full-set forward pass from a minibatch one by the
    # row count of the third positional argument; a refactor that passed X
    # another way, or dropped a pass, would move or lose model.forward_full.
    # The loss is taken and prototypes are looked up once per step, and coded
    # once per run; inlining ``loss`` would silently drop training.loss.s.
    spans = load_spans()
    factor_count = 1 if kind == "factor-coded" else 0
    ds = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=20,
                                        factor_count=factor_count, seed=0))
    val = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=6,
                                         factor_count=factor_count, seed=1))
    config = TrainConfig(epochs=3, batch_size=8, embedding_dim=4, hidden_dims=(4,), seed=0,
                         extractor={"kind": kind})
    steps = config.epochs * math.ceil(ds.n / config.batch_size)
    extractor = extractor_for(kind, ds, config.embedding_dim)
    tracer = spans.Tracer(config.batch_size)
    tracer.install()
    try:
        train(ds, extractor, config, val=val)
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.spans)
    assert metrics["model.forward_full.calls"] == 2 * config.epochs
    assert metrics["model.forward_batch.calls"] == steps
    assert metrics["training.optimizer.calls"] == steps
    assert metrics["prototypes.extract_batch.calls"] == steps
    assert sum(1 for span in tracer.spans if span[0] == "training.loss") == steps
    codes = sum(1 for span in tracer.spans if span[0] == "prototypes.code")
    assert codes == (1 if kind == "factor-coded" else 0)


def test_a_stack_is_traced_as_one_batch_pass_per_step_and_full_passes_per_run():
    # A stack's minibatch forward takes (R, n, input_dim) rows, which the
    # benchmark reads as R <= batch_size rows: a batch pass, one per step,
    # with one optimizer step.  Each run's accuracy passes stay 2-D and count
    # as full passes.
    spans = load_spans()
    runs = []
    for seed in range(3):
        ds = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=20, seed=seed))
        val = generate_synthetic(SynthConfig(class_count=2, input_dim=4, samples_per_class=6, seed=10 + seed))
        config = TrainConfig(epochs=3, batch_size=8, embedding_dim=4, hidden_dims=(4,), seed=seed)
        runs.append((ds, extractor_for("class-orthogonal", ds, config.embedding_dim), config, val))
    steps = config.epochs * math.ceil(ds.n / config.batch_size)
    tracer = spans.Tracer(config.batch_size)
    tracer.install()
    try:
        train_runs(runs)
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.spans)
    assert metrics["model.forward_full.calls"] == 2 * config.epochs * len(runs)
    assert metrics["model.forward_batch.calls"] == metrics["training.optimizer.calls"] == steps
    assert metrics["prototypes.extract_batch.calls"] == steps * len(runs)


def test_compare_scores_each_run_once_after_its_last_epoch(tmp_path):
    # compare reads only each run's last training accuracy and scores the
    # held-out split itself, so per run there is one full training-set pass
    # after the last epoch and one held-out pass in cli, at any epoch count.
    # Per step, each loss's stack of 3 takes one batch pass and one
    # optimizer step.
    spans = load_spans()
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"class_count": 2, "input_dim": 4, "samples_per_class": 20, "seed": 0}))
    config = TrainConfig(epochs=3, batch_size=8, embedding_dim=4, hidden_dims=(4,), train_fraction=0.5)
    config_file = tmp_path / "compare.json"
    config_file.write_text(json.dumps(config_to_doc(config)))
    data = str(tmp_path / "data.csv")
    assert main(["gen-data", "--config", str(gen), "--out", data, "--quiet"]) == 0
    train_rows = split(load_table(data), config.train_fraction, 0)[0].n
    assert train_rows > config.batch_size
    runs = 3
    steps = 2 * config.epochs * math.ceil(train_rows / config.batch_size)
    tracer = spans.Tracer(config.batch_size)
    tracer.install()
    try:
        assert main(["compare", data, "--config", str(config_file), "--out", str(tmp_path / "cmp"),
                     "--seeds", "0,1,2", "--quiet"]) == 0
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.spans)
    assert metrics["model.forward_full.calls"] == 4 * runs
    assert metrics["metrics.accuracy.calls"] == 4 * runs
    assert metrics["model.forward_batch.calls"] == metrics["training.optimizer.calls"] == steps


def test_cli_forward_and_explain_spans_count_their_calls(tmp_path):
    # eval's one full-set pass and explain's one batch are found through the
    # names cli binds; a cli that called them by another name would silently
    # drop the table-io workload's model and explain metrics.
    spans = load_spans()
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"class_count": 2, "input_dim": 4, "samples_per_class": 20, "seed": 0}))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 2, "embedding_dim": 4, "hidden_dims": [4], "seed": 0}))
    data, run = str(tmp_path / "data.csv"), tmp_path / "run"
    assert main(["gen-data", "--config", str(gen), "--out", data, "--quiet"]) == 0
    assert main(["train", data, "--config", str(config), "--out", str(run), "--quiet"]) == 0
    checkpoint = str(run / "checkpoint.json")

    def traced(argv):
        tracer = spans.Tracer(32)
        tracer.install()
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        return spans.summarize(tracer.spans)

    metrics = traced(["eval", checkpoint, data, "--quiet"])
    assert metrics["model.forward_full.calls"] == 1
    assert metrics["explain.explain_sample.calls"] == 0
    metrics = traced(["explain", checkpoint, data, "--samples", "0,3", "--out", str(tmp_path / "ex"), "--quiet"])
    assert metrics["explain.explain_sample.calls"] == 1
