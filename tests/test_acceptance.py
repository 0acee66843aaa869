"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed as each test finishes.  The end-to-end criteria use
fixed dataset seeds and fixed run seeds, so their numbers are exactly
reproducible.
"""

import json
import time

import numpy as np
import pytest

from fixedproto.cli import main, run_comparison
from fixedproto.data import SynthConfig, generate_synthetic, save_dataset, split, true_levels
from fixedproto.explain import explain_sample
from fixedproto.metrics import disentanglement_report
from fixedproto.model import backward, forward, init_params
from fixedproto.prototypes import (
    FactorCodedExtractor,
    class_orthogonal_extractor,
    fit_factor_coder,
)
from fixedproto.training import TrainConfig, loss, train_runs

from util import central_difference, max_rel_error

# Criterion 4 fixture: six moderately overlapping classes.
SEPARATION_DATA = dict(class_count=6, input_dim=20, samples_per_class=300,
                       class_separation=3.0, noise_scale=1.0, seed=100)
SEPARATION_TRAIN = dict(epochs=40, batch_size=32, learning_rate=1e-3, embedding_dim=16,
                        hidden_dims=(64, 64), train_fraction=0.8, mixup_alpha=0.2)

# Criteria 5-7 fixture: three 3-level factors injected into the inputs.
FACTOR_DATA = dict(class_count=4, input_dim=20, samples_per_class=300, factor_count=3,
                   class_separation=3.0, noise_scale=0.05, seed=200)
FACTOR_TRAIN = dict(epochs=250, batch_size=32, learning_rate=3e-3, embedding_dim=16,
                    hidden_dims=(64, 64), train_fraction=0.8,
                    extractor={"kind": "factor-coded"})

RUN_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def factor_dataset():
    return generate_synthetic(SynthConfig(**FACTOR_DATA))


def factor_run(dataset, seed, loss_kind):
    """The run ``(train_set, extractor, config, val_set)`` of one seed and loss."""
    tr, va = split(dataset, 0.8, seed=seed)
    extractor = None
    if loss_kind == "proto":
        coder = fit_factor_coder(tr.factors, names=dataset.factor_names)
        extractor = FactorCodedExtractor(coder, FACTOR_TRAIN["embedding_dim"])
    return tr, extractor, TrainConfig(**FACTOR_TRAIN, seed=seed, loss=loss_kind), va


@pytest.fixture(scope="module")
def factor_runs(factor_dataset):
    """(widths, params, history, extractor, val_set) per (loss, seed); each
    loss's seeds train as one stack, with each run's bits as trained alone.
    Only the last epoch is scored: the criteria read no earlier accuracy."""
    results = {}
    for kind in ("proto", "ce"):
        runs = [factor_run(factor_dataset, seed, kind) for seed in RUN_SEEDS]
        trained = train_runs(runs, score_every_epoch=False)
        for seed, (_, extractor, _, va), (widths, params, history) in zip(RUN_SEEDS, runs, trained):
            results[(kind, seed)] = widths, params, history, extractor, va
    return results


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the full loss match central finite differences."""
    start = time.time()
    p, hidden, k, C = 6, (8,), 5, 3
    lambda_p = 1.0 / k
    rng = np.random.default_rng(12)
    widths = (p, *hidden, k, C)
    params = init_params(widths, 1, 2)
    extractor = class_orthogonal_extractor(C, k, seed=3)
    X = rng.standard_normal((8, p))
    Y = np.identity(C)[rng.integers(0, C, size=8)]
    P = extractor.extract_batch(Y)

    def scalar_loss():
        trace = forward(widths, params, X)
        ce, proto_sq, _, _ = loss(Y, trace, P, lambda_p)
        return (ce + lambda_p * proto_sq) / len(Y)

    numeric = central_difference(scalar_loss, [params], step=1e-5)
    trace = forward(widths, params, X)
    _, _, grad_logits, grad_z = loss(Y, trace, P, lambda_p)
    analytic = backward(trace, grad_logits, grad_z)
    worst = max_rel_error([analytic], numeric)
    assert worst < 1e-5, f"worst relative error {worst:.3e}"
    assert time.time() - start < 5.0


def test_criterion_2_multilinearity():
    """1000 randomized trials per side, deviation below 1e-12."""
    start = time.time()
    rng = np.random.default_rng(0)
    C, k, m = 6, 16, 3
    class_ex = class_orthogonal_extractor(C, k, seed=0)
    coder = fit_factor_coder(np.column_stack([rng.standard_normal(50) for _ in range(m)]))
    factor_ex = FactorCodedExtractor(coder, k)
    worst = 0.0
    for _ in range(1000):  # each trial on 1-row batches
        ya, yb = rng.dirichlet(np.ones(C), size=1), rng.dirichlet(np.ones(C), size=1)
        a = rng.random()
        b = 1.0 - a
        lhs = class_ex.extract_batch(a * ya + b * yb)
        rhs = a * class_ex.extract_batch(ya) + b * class_ex.extract_batch(yb)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    for _ in range(1000):
        ca = rng.dirichlet(np.ones(3), size=m)[None]
        cb = rng.dirichlet(np.ones(3), size=m)[None]
        a = rng.random()
        b = 1.0 - a
        lhs = factor_ex.extract_batch(a * ca + b * cb)
        rhs = a * factor_ex.extract_batch(ca) + b * factor_ex.extract_batch(cb)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12, f"max deviation {worst:.3e}"
    assert time.time() - start < 1.0


def test_criterion_3_orthogonality_and_jlt():
    """Exact orthonormal prototypes at k >= C; bounded JLT distortion at k < C."""
    start = time.time()
    ex = class_orthogonal_extractor(4, 16, seed=0)
    gram = ex.table @ ex.table.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    for seed in (0, 2, 3):  # fixture seeds
        ex = class_orthogonal_extractor(100, 32, seed=seed)
        diffs = ex.table[:, None, :] - ex.table[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=-1))
        iu = np.triu_indices(100, k=1)
        ratios = dists[iu] / np.sqrt(2.0)  # orthonormal sources sit sqrt(2) apart
        assert ratios.min() > 0.5, f"seed {seed}: min ratio {ratios.min():.3f}"
        assert ratios.max() < 1.5, f"seed {seed}: max ratio {ratios.max():.3f}"
    assert time.time() - start < 5.0


def test_criterion_4_separation_claim():
    """Prototype training separates class centroids without losing accuracy."""
    start = time.time()
    dataset = generate_synthetic(SynthConfig(**SEPARATION_DATA))
    config = TrainConfig(**SEPARATION_TRAIN, seed=0)
    comparison = run_comparison(dataset, config, seeds=list(RUN_SEEDS))
    proto = comparison["systems"]["predefined-prototype"]
    ce = comparison["systems"]["cross-entropy"]
    cos_gap = ce["mean_abs_cos_mean"] - proto["mean_abs_cos_mean"]
    acc_gap_points = (proto["accuracy_mean"] - ce["accuracy_mean"]) * 100.0
    assert cos_gap >= 0.1, f"centroid |cos| gap {cos_gap:.3f}"
    assert acc_gap_points >= -1.0, f"accuracy gap {acc_gap_points:.2f} points"
    assert time.time() - start < 180.0


def test_criterion_5_disentanglement_claim(factor_runs):
    """Factor levels are readable from their designated dims after training."""
    start = time.time()
    widths, params, _, extractor, va = factor_runs[("proto", 0)]
    trace = forward(widths, params, va.X)
    report = disentanglement_report(trace.z, true_levels(va.factors), extractor)
    for probe in report["factors"]:
        assert probe["designated_accuracy"] >= 0.90, (
            f"{probe['name']}: designated probe {probe['designated_accuracy']:.3f}"
        )
    prototypes = extractor.extract_batch(extractor.targets(va.Y, va.factors))
    coded = extractor.coded_dim
    dist = float(np.mean(np.linalg.norm(trace.z[:, :coded] - prototypes[:, :coded], axis=1)))
    assert dist < 0.5, f"designated-dim prototype distance {dist:.3f}"
    assert time.time() - start < 120.0


def test_criterion_6_accuracy_parity(factor_runs):
    """Factor-coded prototypes cost at most 2 accuracy points vs plain CE."""
    proto_acc = np.mean([factor_runs[("proto", s)][2]["rows"][-1]["val_accuracy"] for s in RUN_SEEDS])
    ce_acc = np.mean([factor_runs[("ce", s)][2]["rows"][-1]["val_accuracy"] for s in RUN_SEEDS])
    gap_points = abs(proto_acc - ce_acc) * 100.0
    assert gap_points <= 2.0, f"accuracy gap {gap_points:.2f} points"


def test_criterion_7_relevance_identity(factor_runs):
    """Logits decompose exactly; the export layout has 9 + 7 labeled rows."""
    widths, params, _, extractor, va = factor_runs[("proto", 0)]
    rng = np.random.default_rng(0)
    ids = rng.choice(va.n, size=100, replace=False)
    expl = explain_sample(widths, params, va.X[ids], sample_ids=ids,
                          layout=extractor, class_names=va.class_names)
    for i, gamma in zip(ids, expl["gamma"]):
        reference = forward(widths, params, va.X[i : i + 1]).logits[0]  # a 1-row batch
        assert np.max(np.abs(gamma.sum(axis=0) - reference)) < 1e-9
    factor_rows = [l for l in expl["row_labels"] if not l.startswith("other factor")]
    free_rows = [l for l in expl["row_labels"] if l.startswith("other factor")]
    assert len(factor_rows) == 9
    assert len(free_rows) == 7


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    dataset = generate_synthetic(SynthConfig(class_count=3, input_dim=8, samples_per_class=40,
                                             class_separation=4.0, noise_scale=0.4, seed=0))
    data_path = root / "data.csv"
    save_dataset(dataset, data_path)
    config_path = root / "train.json"
    config_path.write_text(json.dumps({
        "schema_version": 1,
        "epochs": 12,
        "batch_size": 16,
        "learning_rate": 0.001,
        "embedding_dim": 8,
        "hidden_dims": [16],
        "train_fraction": 0.8,
        "seed": 0,
        "extractor": {"kind": "class-orthogonal"},
    }, indent=2))
    return root, data_path, config_path


def test_criterion_8_reproducibility(cli_workspace):
    """Identical seeds give bit-identical checkpoints and comparisons."""
    root, data_path, config_path = cli_workspace
    for name in ("rep1", "rep2"):
        code = main(["train", str(data_path), "--config", str(config_path),
                     "--out", str(root / name), "--quiet"])
        assert code == 0
    assert (root / "rep1" / "checkpoint.json").read_bytes() == \
        (root / "rep2" / "checkpoint.json").read_bytes()
    for name in ("cmp1", "cmp2"):
        code = main(["compare", str(data_path), "--config", str(config_path),
                     "--out", str(root / name), "--seeds", "0,1,2", "--quiet"])
        assert code == 0
    assert (root / "cmp1" / "comparison.json").read_bytes() == \
        (root / "cmp2" / "comparison.json").read_bytes()


def test_criterion_9_lambda_zero_reduction(cli_workspace):
    """The prototype path with lambda_p = 0 is exactly the CE baseline."""
    root, data_path, config_path = cli_workspace
    code = main(["train", str(data_path), "--config", str(config_path),
                 "--out", str(root / "l0"), "--lambda-p", "0", "--quiet"])
    assert code == 0
    code = main(["train", str(data_path), "--config", str(config_path),
                 "--out", str(root / "ce"), "--loss", "ce", "--quiet"])
    assert code == 0
    assert (root / "l0" / "checkpoint.json").read_bytes() == \
        (root / "ce" / "checkpoint.json").read_bytes()
