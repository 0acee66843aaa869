import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedproto import training as training_module
from fixedproto.cli import _eval_doc
from fixedproto.data import Dataset, SynthConfig, config_from_doc, config_to_doc, generate_synthetic, split
from fixedproto.model import backward, forward, init_params, param_views, softmax
from fixedproto.prototypes import (
    FactorCodedExtractor,
    FactorCoder,
    class_orthogonal_extractor,
    extractor_to_doc,
    fit_factor_coder,
)
from fixedproto.metrics import accuracy
from fixedproto.training import (
    Adam,
    DivergenceError,
    SGD,
    TrainConfig,
    loss,
    make_optimizer,
    mix_rows,
    train,
    train_runs,
)

from util import central_difference, overflowing_loss, pack, rows_dataset


def fake_trace(logits, z):
    """A trace of a batch of logits and embeddings; one sample is a 1-row batch."""
    return SimpleNamespace(logits=np.atleast_2d(np.asarray(logits, dtype=float)),
                           z=np.atleast_2d(np.asarray(z, dtype=float)))


def blob_dataset(seed=0, samples_per_class=100, noise=0.4, classes=2, dim=2):
    config = SynthConfig(class_count=classes, input_dim=dim, samples_per_class=samples_per_class,
                         class_separation=4.0, noise_scale=noise, seed=seed)
    return generate_synthetic(config)


class TestLoss:
    def test_hand_computed_example(self):
        trace = fake_trace(logits=[0.0, 0.0], z=[1.0, 0.0])
        ce, proto_sq, _, _ = loss(np.array([1.0, 0.0]), trace, np.zeros(2), lambda_p=0.5)
        assert ce + 0.5 * proto_sq == pytest.approx(np.log(2.0) + 0.5, abs=1e-12)
        assert ce + 0.5 * proto_sq == pytest.approx(1.19315, abs=1e-5)
        assert ce == pytest.approx(np.log(2.0), abs=1e-12)
        assert proto_sq == pytest.approx(1.0, abs=1e-15)

    def test_uniform_prediction_on_prototype(self):
        for C in (2, 4, 7):
            z = np.arange(C, dtype=float)
            trace = fake_trace(logits=np.zeros(C), z=z)
            y = np.zeros(C)
            y[1] = 1.0
            ce, proto_sq, _, _ = loss(y, trace, z.copy(), lambda_p=0.25)
            assert ce + 0.25 * proto_sq == pytest.approx(np.log(C), abs=1e-12)
            assert proto_sq == 0.0

    def test_confident_correct_prediction_vanishes(self):
        trace = fake_trace(logits=[200.0, 0.0], z=[1.0, 2.0])
        ce, proto_sq, _, _ = loss(np.array([1.0, 0.0]), trace, np.array([1.0, 2.0]), lambda_p=0.5)
        assert ce + 0.5 * proto_sq == pytest.approx(0.0, abs=1e-12)

    def test_stable_for_huge_logits(self):
        trace = fake_trace(logits=[1e3, -1e3], z=[0.0, 0.0])
        ce, proto_sq, _, _ = loss(np.array([0.0, 1.0]), trace, np.zeros(2), lambda_p=0.5)
        assert np.isfinite(ce + 0.5 * proto_sq)

    @pytest.mark.parametrize("rows, lambda_p", [(1, 0.25), (5, 0.25), (5, 0.0)],
                             ids=["1-row", "5-rows", "5-rows-without-prototype"])
    def test_gradient_matches_finite_differences(self, rows, lambda_p):
        # the partials are those of the batch mean, soft labels included
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((rows, 3))
        z = rng.standard_normal((rows, 4))
        p = rng.standard_normal((rows, 4)) if lambda_p else None
        y = rng.dirichlet(np.ones(3), size=rows)

        holder = {"logits": logits.copy(), "z": z.copy()}

        def scalar():
            ce, proto_sq, _, _ = loss(y, fake_trace(holder["logits"], holder["z"]), p, lambda_p)
            return (ce + lambda_p * proto_sq) / rows

        num = central_difference(scalar, [holder["logits"], holder["z"]], step=1e-6)
        _, proto_sq, grad_logits, grad_z = loss(y, fake_trace(logits, z), p, lambda_p)
        assert np.allclose(grad_logits, num[0], atol=1e-8)
        if p is None:
            assert proto_sq == 0.0 and grad_z is None
            assert not num[1].any()
        else:
            assert np.allclose(grad_z, num[1], atol=1e-8)

    def test_sums_match_an_exact_sum_over_rows(self):
        # A stack of three runs and each run alone, against math.fsum of the
        # same float64 products over every row and column.
        rng = np.random.default_rng(6)
        logits = 5.0 * rng.standard_normal((3, 32, 4))
        z, p = rng.standard_normal((2, 3, 32, 16))
        y = rng.dirichlet(np.ones(4), size=(3, 32))
        stacked = loss(y, fake_trace(logits, z), p, lambda_p=0.25)
        for r in range(3):
            log_probs = softmax(logits[r])[1]
            exact_ce = -math.fsum((y[r] * log_probs).ravel())
            exact_sq = math.fsum(((z[r] - p[r]) * (z[r] - p[r])).ravel())
            alone = loss(y[r], fake_trace(logits[r], z[r]), p[r], lambda_p=0.25)
            for ce, proto_sq in ((stacked[0][r], stacked[1][r]), alone[:2]):
                assert abs(ce - exact_ce) <= 1e-12 * abs(exact_ce)
                assert abs(proto_sq - exact_sq) <= 1e-12 * exact_sq

    def test_prototype_requires_lambda(self):
        trace = fake_trace([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            loss(np.array([1.0, 0.0]), trace, None, lambda_p=0.5)


class TestMixup:
    def test_lambda_one_returns_first_sample(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam, perm = np.ones(2), np.array([1, 0])
        assert np.array_equal(mix_rows(x, lam, perm), x)
        assert np.array_equal(mix_rows(y, lam, perm), y)

    def test_half_mix_of_one_hot_labels(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam, perm = np.full(2, 0.5), np.array([1, 0])
        assert np.array_equal(mix_rows(y, lam, perm), [[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(mix_rows(x, lam, perm), [[0.5, 0.5], [0.5, 0.5]])

    def test_mixed_prototype_equals_mixed_prototypes(self):
        rng = np.random.default_rng(3)
        ex = class_orthogonal_extractor(4, 8, seed=0)
        Y = rng.dirichlet(np.ones(4), size=50)
        lam = rng.beta(0.4, 0.4, size=50)
        perm = rng.permutation(50)
        lhs = ex.extract_batch(mix_rows(Y, lam, perm))
        P = ex.extract_batch(Y)
        rhs = lam[:, None] * P + (1.0 - lam)[:, None] * P[perm]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_coded_factor_mixing(self):
        coder = FactorCoder(names=("a",), lower=np.array([-0.5]), upper=np.array([0.5]))
        ex = FactorCodedExtractor(coder, 5)
        codes = ex.targets(rows_dataset(factors=np.array([[-1.0], [1.0]])))  # low, high
        lam, perm = np.array([0.25, 0.6]), np.array([1, 0])
        lhs = ex.extract_batch(mix_rows(codes, lam, perm))
        P = ex.extract_batch(codes)
        rhs = lam[:, None] * P + (1.0 - lam)[:, None] * P[perm]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class PerArraySGD:
    """Reference: gradient descent as one in-place update per parameter array."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, arrays, grads):
        for p, g in zip(arrays, grads):
            p -= self.learning_rate * g


class PerArrayAdam:
    """Reference: Adam with per-array moments, updated one array at a time;
    the moments are kept divided by ``1 - beta``, as ``Adam`` keeps them."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in arrays]
            self.v = [np.zeros_like(p) for p in arrays]
        self.t += 1
        c = np.sqrt((1.0 - self.beta2) / (1.0 - self.beta2**self.t))
        lr_t = self.learning_rate * (1.0 - self.beta1) / ((1.0 - self.beta1**self.t) * c)
        for p, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.beta1
            m += g
            v *= self.beta2
            v += g * g
            p -= lr_t * m / (np.sqrt(v) + self.eps / c)


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0])
        SGD(learning_rate=0.1).step(p, np.array([1.0]))
        assert p[0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_gradient_is_identity(self):
        p_sgd = np.array([1.0, -2.0])
        SGD(0.5).step(p_sgd, np.zeros(2))
        assert np.array_equal(p_sgd, [1.0, -2.0])
        p_adam = np.array([1.0, -2.0])
        Adam(0.5).step(p_adam, np.zeros(2))
        assert np.array_equal(p_adam, [1.0, -2.0])

    def test_adam_first_step_magnitude_is_lr(self):
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        for g in (1.0, 100.0, 1e-4):
            p = np.array([0.0])
            Adam(learning_rate=0.01).step(p, np.array([g]))
            assert p[0] == pytest.approx(-0.01, rel=1e-3)

    @pytest.mark.parametrize(
        "flat_opt, reference",
        [(SGD(0.05), PerArraySGD(0.05)), (Adam(0.01), PerArrayAdam(0.01))],
        ids=["sgd", "adam"],
    )
    def test_flat_step_matches_per_array_loop(self, flat_opt, reference):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 5))
        widths = (5, 7, 3, 2)
        params, ref_params = init_params(widths, 0, 1), init_params(widths, 0, 1)
        ref_layers, ref_head = param_views(widths, ref_params)  # the reference steps each array alone
        ref_arrays = [a for layer in ref_layers for a in layer] + [ref_head]
        ends = np.cumsum([a.size for a in ref_arrays])
        for _ in range(3):
            grad_logits = rng.standard_normal((6, 2))
            flat_opt.step(params, backward(forward(widths, params, X), grad_logits))
            ref_grad = backward(forward(widths, ref_params, X), grad_logits)
            ref_grads = [g.reshape(a.shape) for g, a in zip(np.split(ref_grad, ends[:-1]), ref_arrays)]
            reference.step(ref_arrays, ref_grads)
        assert params.tobytes() == np.concatenate([a.ravel() for a in ref_arrays]).tobytes()

    def test_adam_update_is_the_allocating_expression_to_the_bit(self):
        # Each step starts from zero parameters, so the update itself is compared
        # (added to parameters of size ~1, a last-bit difference would vanish).
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(5)
        opt = Adam(lr, b1, b2, eps)
        m = v = np.zeros(500)
        for t in range(1, 6):
            g = rng.standard_normal(500) * 10.0 ** rng.integers(-3, 3, size=500)
            p = np.zeros(500)
            opt.step(p, g)
            m = m * b1 + g
            v = v * b2 + g * g
            c = np.sqrt((1.0 - b2) / (1.0 - b2**t))
            expect = -(lr * (1.0 - b1) / ((1.0 - b1**t) * c) * m / (np.sqrt(v) + eps / c))
            assert p.tobytes() == expect.tobytes(), t

    def test_adam_matches_kingma_and_ba_algorithm_1(self):
        # 2,000 steps, each from zero parameters, against Algorithm 1 of Kingma
        # & Ba as written: per-element gradient scales from 1e-9 to 1e2, and a
        # block at scale eps, where sqrt(v_hat) ~ eps.  Where the gradients
        # cancel in m, both float64 expressions lose the same digits of m, so
        # the error is taken relative to the update that |g| would give.
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(4)
        scales = np.concatenate([10.0 ** rng.uniform(-9, 2, size=400), np.full(100, eps)])
        opt = Adam(lr, b1, b2, eps)
        m = v = m_abs = np.zeros(500)
        near_eps = 0
        for t in range(1, 2001):
            g = scales * rng.standard_normal(500)
            p = np.zeros(500)
            opt.step(p, g)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            m_abs = b1 * m_abs + (1 - b1) * np.abs(g)
            m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
            denominator = np.sqrt(v_hat) + eps
            error = np.abs(-p - lr * m_hat / denominator)
            assert np.all(error <= 1e-12 * lr * m_abs / (1 - b1**t) / denominator), t
            near_eps += np.count_nonzero(np.abs(np.sqrt(v_hat) / eps - 1) < 0.5)
        assert near_eps > 100 * 1000
        assert np.all(np.abs(opt.m * (1 - b1) - m) <= 1e-12 * m_abs)
        assert np.all(np.abs(opt.v * (1 - b2) - v) <= 1e-12 * v)

    def test_adam_matches_hand_rolled_two_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        opt = Adam(lr, b1, b2, eps)
        p = np.array([1.0])
        grads = [np.array([0.5]), np.array([-0.2])]
        m = v = 0.0
        expect = 1.0
        for t, g in enumerate(grads, start=1):
            opt.step(p, g)
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            expect -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert p[0] == pytest.approx(expect, abs=1e-15)


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        ds = blob_dataset(samples_per_class=100, noise=0.3)
        config = TrainConfig(epochs=30, batch_size=32, learning_rate=1e-3,
                             embedding_dim=8, hidden_dims=(16,), seed=0)
        ex = class_orthogonal_extractor(2, 8, seed=0)
        _, _, history = train(ds, ex, config)
        assert history["rows"][-1]["train_accuracy"] >= 0.99

    def test_tiny_learning_rate_keeps_loss_flat(self):
        ds = blob_dataset(samples_per_class=30)
        config = TrainConfig(epochs=5, learning_rate=1e-12, embedding_dim=8,
                             hidden_dims=(8,), seed=0)
        ex = class_orthogonal_extractor(2, 8, seed=0)
        _, _, history = train(ds, ex, config)
        losses = [r["total_loss"] for r in history["rows"]]
        assert max(losses) - min(losses) < 1e-6

    def test_deterministic_runs(self):
        ds = blob_dataset(samples_per_class=40)
        config = TrainConfig(epochs=3, embedding_dim=8, hidden_dims=(8,), seed=7)
        ex = class_orthogonal_extractor(2, 8, seed=1)
        w1, p1, h1 = train(ds, ex, config)
        w2, p2, h2 = train(ds, ex, config)
        assert w1 == w2 and p1.tobytes() == p2.tobytes()
        assert json.dumps(h1) == json.dumps(h2)

    def test_lambda_zero_matches_ce_baseline_bitwise(self):
        ds = blob_dataset(samples_per_class=40)
        ex = class_orthogonal_extractor(2, 8, seed=1)
        proto_cfg = TrainConfig(epochs=4, embedding_dim=8, hidden_dims=(8,), seed=3,
                                lambda_p=0.0, loss="proto")
        ce_cfg = TrainConfig(epochs=4, embedding_dim=8, hidden_dims=(8,), seed=3, loss="ce")
        w1, p1, _ = train(ds, ex, proto_cfg)
        w2, p2, _ = train(ds, None, ce_cfg)
        assert w1 == w2 and p1.tobytes() == p2.tobytes()

    def test_loss_decomposition_identity(self):
        ds = blob_dataset(samples_per_class=30)
        config = TrainConfig(epochs=3, embedding_dim=8, hidden_dims=(8,), seed=2)
        ex = class_orthogonal_extractor(2, 8, seed=0)
        _, _, history = train(ds, ex, config)
        lam = config.effective_lambda()
        for row in history["rows"]:
            assert row["total_loss"] == row["ce_loss"] + lam * row["prototype_loss"]

    def test_extractor_untouched_by_training(self):
        ds = blob_dataset(samples_per_class=30)
        ex = class_orthogonal_extractor(2, 8, seed=5)
        before = extractor_to_doc(ex)
        config = TrainConfig(epochs=2, embedding_dim=8, hidden_dims=(8,), seed=0)
        train(ds, ex, config)
        assert extractor_to_doc(ex) == before

    def test_divergence_raises_with_location(self):
        ds = blob_dataset(samples_per_class=30)
        ex = class_orthogonal_extractor(2, 8, seed=0)
        config = TrainConfig(epochs=50, learning_rate=1e30, optimizer="sgd",
                             embedding_dim=8, hidden_dims=(8,), seed=0)
        with pytest.raises(DivergenceError) as err:
            train(ds, ex, config)
        assert err.value.epoch >= 0
        assert err.value.batch >= 0

    @pytest.mark.parametrize("call, message", [
        (lambda ds, config: train(ds.subset(np.arange(0)), class_orthogonal_extractor(2, 8, seed=0), config),
         "dataset is empty"),
        (lambda ds, config: train(ds, None, config), "prototype loss requires an extractor"),
        (lambda ds, config: train(ds, class_orthogonal_extractor(2, 4, seed=0), config),
         "extractor embedding_dim 4 does not match config embedding_dim 8"),
        (lambda ds, config: train_runs([]), "train_runs needs at least one run"),
    ], ids=["empty-dataset", "no-extractor", "extractor-dim", "no-runs"])
    def test_library_guards_name_what_is_wrong(self, call, message):
        config = TrainConfig(epochs=1, embedding_dim=8, hidden_dims=(8,), seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(blob_dataset(samples_per_class=10), config)

    def test_factor_coded_training_with_mixup_runs(self):
        config = SynthConfig(class_count=2, input_dim=6, samples_per_class=40,
                             factor_count=1, class_separation=4.0, noise_scale=0.3, seed=0)
        ds = generate_synthetic(config)
        coder = FactorCoder(names=("alpha_0",), lower=np.array([-0.5]), upper=np.array([0.5]))
        ex = FactorCodedExtractor(coder, 6)
        cfg = TrainConfig(epochs=10, embedding_dim=6, hidden_dims=(16,), seed=0,
                          mixup_alpha=0.2, extractor={"kind": "factor-coded"})
        _, _, history = train(ds, ex, cfg)
        assert np.isfinite(history["rows"][-1]["total_loss"])
        assert history["rows"][-1]["train_accuracy"] > 0.9

    def test_factor_coded_requires_factors(self):
        ds = blob_dataset(samples_per_class=20)
        coder = FactorCoder(names=("a",), lower=np.array([0.0]), upper=np.array([1.0]))
        ex = FactorCodedExtractor(coder, 8)
        config = TrainConfig(epochs=1, embedding_dim=8, seed=0)
        with pytest.raises(ValueError, match="factor"):
            train(ds, ex, config)

    def test_validation_accuracy_recorded(self):
        ds = blob_dataset(samples_per_class=50)
        val = blob_dataset(seed=9, samples_per_class=20)
        config = TrainConfig(epochs=2, embedding_dim=8, hidden_dims=(8,), seed=0)
        ex = class_orthogonal_extractor(2, 8, seed=0)
        _, _, history = train(ds, ex, config, val=val)
        assert history["rows"][-1]["val_accuracy"] is not None
        assert list(history["rows"][0]) == [
            "epoch", "total_loss", "ce_loss", "prototype_loss", "train_accuracy", "val_accuracy"]


def reference_train(dataset, extractor, config, val=None):
    """Reference: the training loop with per-batch fancy indexing of the
    inputs, labels and targets, a log-softmax computed apart from the
    forward pass, and a fresh forward pass (no ``into``) for every batch and
    accuracy.  With mixup, each epoch draws each batch's partner
    permutation in turn, then one weight per row (the trainer's one
    ``permuted`` call over its full batches draws the same stream); a
    batch's partners are dataset rows reached through ``order``.  Returns
    (parameter vector, history)."""
    lambda_p = config.effective_lambda() if config.uses_prototypes else 0.0
    targets = extractor.targets(dataset) if config.uses_prototypes else None
    emb_seed, clf_seed, shuffle_seed, mix_seed = np.random.SeedSequence(config.seed).spawn(4)
    widths = (dataset.input_dim, *config.hidden_dims, config.embedding_dim, dataset.class_count)
    params = init_params(widths, emb_seed, clf_seed)
    rng_shuffle, rng_mix = np.random.default_rng(shuffle_seed), np.random.default_rng(mix_seed)
    opt = make_optimizer(config)
    X, Y, n = dataset.X, dataset.Y, dataset.n
    rows = []
    for epoch in range(config.epochs):
        order = rng_shuffle.permutation(n)
        if config.mixup_alpha > 0:
            batch_perms = [rng_mix.permutation(min(config.batch_size, n - start))
                           for start in range(0, n, config.batch_size)]
            lams = rng_mix.beta(config.mixup_alpha, config.mixup_alpha, size=n)
        ce_sum = proto_sum = 0.0
        for batch_i, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            xb, yb = X[idx], Y[idx]
            tb = None if targets is None else targets[idx]
            if config.mixup_alpha > 0:
                partner = order[start + batch_perms[batch_i]]
                w = lams[start : start + idx.size, None]
                xb, yb = w * xb + (1.0 - w) * X[partner], w * yb + (1.0 - w) * Y[partner]
                if tb is not None:
                    w = w.reshape(-1, *(1,) * (tb.ndim - 1))
                    tb = w * tb + (1.0 - w) * targets[partner]
            trace = forward(widths, params, xb)
            shifted = trace.logits - trace.logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            scale = 1.0 / idx.size
            extra = None
            if tb is not None:
                diff = trace.z - extractor.extract_batch(tb)
                proto_sum += float(np.sum(diff * diff))
                extra = diff * (2.0 * lambda_p * scale)
            ce_sum += float(-np.sum(yb * logp))
            opt.step(params, backward(trace, (softmax(trace.logits)[0] - yb) * scale, extra))
        ce_mean, proto_mean = ce_sum / n, proto_sum / n
        val_accuracy = None if val is None else accuracy(forward(widths, params, val.X).logits, val.Y)
        rows.append({"epoch": epoch, "total_loss": ce_mean + lambda_p * proto_mean,
                     "ce_loss": ce_mean, "prototype_loss": proto_mean,
                     "train_accuracy": accuracy(forward(widths, params, X).logits, Y),
                     "val_accuracy": val_accuracy})
    return params, {"format": "train-history", "version": 1, "rows": rows}


# A "ce" run has no prototype targets; a "-linear" model (no hidden layer)
# feeds the batch's input columns straight into its one layer.
@pytest.mark.parametrize("kind, mixup_alpha, hidden_dims", [
    pytest.param(kind, mixup_alpha, hidden_dims,
                 id=f"{kind}-{'mixup' if mixup_alpha else 'no-mixup'}{'' if hidden_dims else '-linear'}")
    for kind in ("class-orthogonal", "factor-coded", "ce") for mixup_alpha in (0.0, 0.2)
    for hidden_dims in ((8,), ())])
def test_train_matches_reference_loop(kind, mixup_alpha, hidden_dims):
    ds = generate_synthetic(SynthConfig(class_count=3, input_dim=8, samples_per_class=30,
                                        factor_count=2, noise_scale=0.5, seed=4))
    val = generate_synthetic(SynthConfig(class_count=3, input_dim=8, samples_per_class=10,
                                         factor_count=2, noise_scale=0.5, seed=5))
    if kind == "class-orthogonal":
        ex = class_orthogonal_extractor(3, 8, seed=2)
    elif kind == "factor-coded":
        ex = FactorCodedExtractor(FactorCoder(names=("alpha_0", "alpha_1"), lower=np.array([-0.5, -0.5]),
                                             upper=np.array([0.5, 0.5])), 8)
    else:
        ex = None
    # 90 rows in batches of 16: the last batch is short.
    config = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, embedding_dim=8,
                         hidden_dims=hidden_dims, mixup_alpha=mixup_alpha, seed=5,
                         loss="ce" if kind == "ce" else "proto",
                         extractor={"kind": "class-orthogonal" if kind == "ce" else kind})
    widths, params, history = train(ds, ex, config, val=val)
    ref_params, ref_history = reference_train(ds, ex, config, val=val)
    assert params.tobytes() == ref_params.tobytes()
    assert all(row["val_accuracy"] is not None for row in history["rows"])
    assert json.dumps(history) == json.dumps(ref_history)


# 3 classes x 30 rows with 2 factors; a 0.8 split leaves 72 training rows per seed.
STACK_DATA = generate_synthetic(SynthConfig(class_count=3, input_dim=5, samples_per_class=30,
                                            factor_count=2, noise_scale=0.5, seed=6))


def stack_run(seed, kind, **fields):
    """One run of a stack: the seed's split of STACK_DATA and its extractor."""
    tr, va = split(STACK_DATA, 0.8, seed)
    extractor = None
    if kind == "class-orthogonal":
        extractor = class_orthogonal_extractor(3, 6, seed)
    elif kind == "factor-coded":
        extractor = FactorCodedExtractor(fit_factor_coder(tr), 6)
    config = TrainConfig(embedding_dim=6, hidden_dims=(5,), seed=seed, loss="ce" if kind == "ce" else "proto",
                         extractor={"kind": "class-orthogonal" if kind == "ce" else kind}, **fields)
    return tr, extractor, config, va


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
       optimizer=st.sampled_from(["adam", "sgd"]),
       mixup_alpha=st.sampled_from([0.0, 0.3, 1.0]),
       kind=st.sampled_from(["class-orthogonal", "factor-coded", "ce"]),
       batch_size=st.sampled_from([5, 7, 16, 50]),
       score_every_epoch=st.booleans())
def test_a_stack_gives_each_run_its_bits_alone(seeds, optimizer, mixup_alpha, kind, batch_size,
                                               score_every_epoch):
    # 72 rows leave a short last batch at every batch size drawn.  Scored
    # after the last epoch only, a run keeps its bits and its last row, and
    # its earlier rows keep their losses with no accuracy.
    runs = [stack_run(seed, kind, epochs=2, batch_size=batch_size, learning_rate=1e-2, optimizer=optimizer,
                      mixup_alpha=mixup_alpha) for seed in seeds]
    for run, (widths, params, history) in zip(runs, train_runs(runs, score_every_epoch=score_every_epoch)):
        alone_widths, alone_params, alone_history = train(*run)
        assert widths == alone_widths
        assert params.tobytes() == alone_params.tobytes()
        if not score_every_epoch:
            *earlier, last = alone_history["rows"]
            alone_history["rows"] = [{**row, "train_accuracy": None, "val_accuracy": None}
                                     for row in earlier] + [last]
        assert json.dumps(history) == json.dumps(alone_history)


def test_mixup_draws_a_fixed_number_of_times_per_epoch(monkeypatch):
    # Each run's mixing generator is its config seed's fourth child stream.
    # Its calls per epoch do not grow with the number of batches: 72 rows
    # make 15, 11 and 2 batches at these sizes, each with a short last one.
    real_rng = np.random.default_rng
    made = []

    class CountingGenerator:
        def __init__(self, seed):
            self.seed, self.rng, self.calls = seed, real_rng(seed), 0
            made.append(self)

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def counted(*args, **kwargs):
                self.calls += 1
                return method(*args, **kwargs)
            return counted

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    epochs, seeds = 3, (0, 1)
    calls = {}
    for batch_size in (5, 7, 50):
        made.clear()
        train_runs([stack_run(seed, "class-orthogonal", epochs=epochs, batch_size=batch_size,
                              mixup_alpha=0.3) for seed in seeds])
        calls[batch_size] = [g.calls / epochs for g in made
                             if isinstance(g.seed, np.random.SeedSequence) and g.seed.spawn_key == (3,)]
    assert calls[5] == calls[7] == calls[50] and len(calls[5]) == len(seeds), calls
    assert all(count <= 3 for count in calls[5]), calls


@pytest.mark.parametrize("field, value", [("epochs", 3), ("learning_rate", 0.5), ("optimizer", "sgd"),
                                          ("mixup_alpha", 0.2), ("loss", "ce"), ("lambda_p", 0.5),
                                          ("hidden_dims", (4,))])
def test_stack_refuses_runs_that_differ_in_more_than_seed_data_and_extractor(field, value):
    first = stack_run(0, "class-orthogonal", epochs=2)
    tr, extractor, config, va = stack_run(1, "class-orthogonal", epochs=2)
    other = (tr, extractor, dataclasses.replace(config, **{field: value}), va)
    with pytest.raises(ValueError, match=f"run 1 differs from run 0 in config field '{field}'"):
        train_runs([first, other])


def test_stack_refuses_datasets_of_other_shapes():
    first = stack_run(0, "class-orthogonal", epochs=2)
    tr, extractor, config, va = stack_run(1, "class-orthogonal", epochs=2)
    with pytest.raises(ValueError, match=r"run 1 has inputs of shape \(71, 5\), run 0 \(72, 5\)"):
        train_runs([first, (tr.subset(np.arange(71)), extractor, config, va)])


def divergence(run):
    """(epoch, batch, value, message) of the run trained alone, or None if it trains through."""
    try:
        train(*run)
    except DivergenceError as e:
        return e.epoch, e.batch, repr(e.value), str(e)
    return None


def stack_divergence(runs, score_every_epoch=True):
    with pytest.raises(DivergenceError) as err:
        train_runs(runs, score_every_epoch=score_every_epoch)
    return err.value.epoch, err.value.batch, repr(err.value.value), str(err.value)


def test_stack_whose_runs_all_diverge_at_batch_0_raises_the_first_runs_error():
    # One batch per epoch: the first step overflows every run's parameters.
    runs = [stack_run(seed, "class-orthogonal", epochs=3, batch_size=100, learning_rate=1e308, optimizer="sgd")
            for seed in (0, 1, 2)]
    alone = [divergence(run) for run in runs]
    assert all(a == (0, 0, "None", "the parameters went non-finite at epoch 0, batch 0") for a in alone)
    assert stack_divergence(runs) == alone[0]
    assert stack_divergence(runs, score_every_epoch=False) == alone[0]


@pytest.fixture(scope="module")
def borderline_runs():
    """Runs at a learning rate where some seeds diverge and some do not, by
    outcome alone: the latest divergence, an earlier one, and none."""
    runs = {seed: stack_run(seed, "class-orthogonal", epochs=6, batch_size=16, learning_rate=2.0,
                            optimizer="sgd") for seed in range(12)}
    outcomes = {seed: divergence(run) for seed, run in runs.items()}
    diverging = sorted((o[:2], seed) for seed, o in outcomes.items() if o is not None)
    late, early = diverging[-1][1], diverging[0][1]
    assert diverging[0][0] < diverging[-1][0], "no two seeds diverge at different steps"
    ok = [seed for seed, o in outcomes.items() if o is None]
    assert ok, "every seed diverges"
    return {"late": runs[late], "early": runs[early], "ok": runs[ok[0]]}, {
        "late": outcomes[late], "early": outcomes[early]}


@pytest.mark.parametrize("order", [("late", "early"), ("ok", "late", "early"), ("ok", "early"),
                                   ("early", "late")])
def test_stack_raises_the_error_of_the_first_run_that_diverges_alone(borderline_runs, order):
    # A later run that diverges first must not stop an earlier run that
    # diverges later: one-by-one training would raise the earlier run's error.
    runs, outcomes = borderline_runs
    expected = outcomes[next(name for name in order if name != "ok")]
    assert stack_divergence([runs[name] for name in order]) == expected
    assert stack_divergence([runs[name] for name in order], score_every_epoch=False) == expected


def test_an_overflowing_epoch_loss_diverges_at_its_last_batch(monkeypatch):
    # 60 rows in batches of 16: every batch mean is finite, the epoch's sum
    # overflows at batch 1 and is placed at the last batch, 3.
    monkeypatch.setattr(training_module, "loss", overflowing_loss())
    config = TrainConfig(epochs=2, batch_size=16, embedding_dim=8, hidden_dims=(8,), seed=0)
    with pytest.raises(DivergenceError) as err:
        train(blob_dataset(samples_per_class=30), class_orthogonal_extractor(2, 8, seed=0), config)
    assert (err.value.epoch, err.value.batch, err.value.value) == (0, 3, np.inf)
    assert str(err.value) == "non-finite loss inf at epoch 0, batch 3"


def test_stack_raises_the_epoch_loss_error_of_the_run_that_overflows_alone(monkeypatch):
    # Only run 1's inputs start above 500, so only its sums overflow.
    monkeypatch.setattr(training_module, "loss", overflowing_loss(threshold=500.0))
    fine = stack_run(0, "class-orthogonal", epochs=2, batch_size=16)
    tr, extractor, config, va = stack_run(1, "class-orthogonal", epochs=2, batch_size=16)
    overflowing = (dataclasses.replace(tr, X=tr.X + 1000.0), extractor, config, va)
    assert divergence(fine) is None
    alone = divergence(overflowing)
    assert alone == (0, 4, "inf", "non-finite loss inf at epoch 0, batch 4")
    assert stack_divergence([fine, overflowing]) == alone
    assert stack_divergence([fine, overflowing], score_every_epoch=False) == alone


def constant_loss(ce):
    """A stand-in for ``training.loss`` whose batch sums are ``ce`` for every
    run, with zero gradients, so the parameters never move."""
    def fake(y, trace, prototype, lambda_p):
        return np.full(len(y), ce), 0.0, np.zeros_like(trace.logits), None
    return fake


def test_an_epoch_of_negative_zero_batch_sums_has_a_positive_zero_loss(monkeypatch):
    # Sums start from +0.0, as a running ``+=`` from zeros does, and
    # +0.0 + -0.0 is +0.0; a running sum of the batch rows alone keeps -0.0.
    monkeypatch.setattr(training_module, "loss", constant_loss(-0.0))
    config = TrainConfig(epochs=2, batch_size=16, embedding_dim=8, hidden_dims=(8,), loss="ce", seed=0)
    _, _, history = train(blob_dataset(samples_per_class=30), None, config)
    assert [repr(row["ce_loss"]) for row in history["rows"]] == ["0.0", "0.0"]
    assert [repr(row["total_loss"]) for row in history["rows"]] == ["0.0", "0.0"]
    assert repr(float(np.add.accumulate(np.full((4, 1), -0.0))[-1, 0])) == "-0.0"


def test_accuracy_takes_the_argmax_of_the_logits_where_probabilities_tie(monkeypatch):
    # Logits 0.1 and the next float up round to equal probabilities, and the
    # row's label is the second class; the other row's label is the first.
    widths, params = pack([(np.eye(1), np.zeros(1))], np.array([[0.1, np.nextafter(0.1, 1.0)]]))
    dataset = Dataset(X=np.array([[1.0], [-1.0]]), Y=np.array([[0.0, 1.0], [1.0, 0.0]]), factors=None,
                      class_names=("a", "b"), factor_names=())
    logits = forward(widths, params, dataset.X).logits
    probs = softmax(logits)[0]
    assert logits[0, 0] < logits[0, 1] and probs[0, 0] == probs[0, 1]
    assert _eval_doc(widths, params, None, dataset)["accuracy"] == 1.0
    monkeypatch.setattr(training_module, "init_params", lambda *_: params.copy())
    monkeypatch.setattr(training_module, "loss", constant_loss(1.0))
    config = TrainConfig(epochs=1, optimizer="sgd", hidden_dims=(), embedding_dim=1, loss="ce")
    _, trained, history = train(dataset, None, config, val=dataset)
    assert trained.tobytes() == params.tobytes()
    assert history["rows"][0]["train_accuracy"] == history["rows"][0]["val_accuracy"] == 1.0


class TestTrainConfig:
    def test_round_trip(self):
        config = TrainConfig(epochs=5, seed=2, hidden_dims=(4, 4))
        back = config_from_doc(TrainConfig, config_to_doc(config))
        assert back == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_doc(TrainConfig, {"epoch": 5})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mixup_alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(loss="focal")

    def test_default_lambda_is_inverse_embedding_dim(self):
        assert TrainConfig(embedding_dim=16).effective_lambda() == 1.0 / 16.0
        assert TrainConfig(embedding_dim=16, lambda_p=0.3).effective_lambda() == 0.3
