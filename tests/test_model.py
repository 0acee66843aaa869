import numpy as np
import pytest

from fixedproto.model import (
    ClassifierParams,
    EmbedderParams,
    Layer,
    backward,
    flat_params,
    forward,
    init_classifier,
    init_embedder,
    relevance,
    softmax,
)
from fixedproto.explain import explain_sample
from fixedproto.training import loss

from util import central_difference, max_rel_error


def tiny_model(seed=0, p=4, hidden=(6,), k=3, C=2):
    embedder = init_embedder(p, hidden, k, seed=seed)
    classifier = init_classifier(k, C, seed=seed + 1)
    return embedder, classifier


class TestInit:
    def test_shapes(self):
        embedder = init_embedder(20, (64, 64), 16, seed=0)
        shapes = [layer.weight.shape for layer in embedder.layers]
        assert shapes == [(64, 20), (64, 64), (16, 64)]
        assert [l.activation for l in embedder.layers] == ["relu", "relu", "identity"]
        assert embedder.input_dim == 20 and embedder.embedding_dim == 16

    def test_no_hidden_layers(self):
        embedder = init_embedder(5, (), 3, seed=0)
        assert len(embedder.layers) == 1
        assert embedder.layers[0].activation == "identity"

    def test_deterministic(self):
        a = init_embedder(7, (5,), 4, seed=9)
        b = init_embedder(7, (5,), 4, seed=9)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_seeds_differ(self):
        a = init_embedder(7, (5,), 4, seed=9)
        b = init_embedder(7, (5,), 4, seed=10)
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_embedder(0, (5,), 4, seed=0)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        embedder = EmbedderParams(
            layers=[Layer(weight=np.zeros((3, 4)), bias=np.zeros(3), activation="identity")]
        )
        classifier = ClassifierParams(weight=np.zeros((3, 5)))
        trace = forward(embedder, classifier, np.ones((1, 4)))
        assert np.array_equal(trace.logits, np.zeros((1, 5)))
        assert np.allclose(trace.probs, np.full((1, 5), 0.2), atol=1e-15)

    def test_hand_computed_single_layer(self):
        # z = W x with W = [[1, 2], [3, 4]], x = (1, 1) -> z = (3, 7)
        embedder = EmbedderParams(
            layers=[Layer(weight=np.array([[1.0, 2.0], [3.0, 4.0]]), bias=np.zeros(2),
                          activation="identity")]
        )
        classifier = ClassifierParams(weight=np.eye(2))
        trace = forward(embedder, classifier, np.array([[1.0, 1.0]]))
        assert np.array_equal(trace.z, [[3.0, 7.0]])
        assert np.array_equal(trace.logits, [[3.0, 7.0]])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        embedder, classifier = tiny_model()
        trace = forward(embedder, classifier, rng.standard_normal((10, 4)))
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(trace.probs >= 0)

    def test_softmax_extreme_logits(self):
        probs, log_probs = softmax(np.array([1e3, -1e3, 0.0]))
        assert np.all(np.isfinite(probs))
        assert np.all(np.isfinite(log_probs))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(1)
        embedder, classifier = tiny_model()
        X = rng.standard_normal((5, 4))
        batch = forward(embedder, classifier, X)
        for i in range(5):
            single = forward(embedder, classifier, X[i : i + 1])  # a 1-row batch
            assert np.allclose(single.z[0], batch.z[i], atol=1e-12)
            assert np.allclose(single.probs[0], batch.probs[i], atol=1e-12)

    def test_dimension_mismatch(self):
        embedder, classifier = tiny_model()
        with pytest.raises(ValueError):
            forward(embedder, classifier, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            forward(embedder, classifier, np.zeros(4))  # a vector, not a batch

    def test_no_parameter_side_effects(self):
        embedder, classifier = tiny_model()
        before = flat_params(embedder, classifier).copy()
        forward(embedder, classifier, np.ones((1, 4)))
        assert np.array_equal(flat_params(embedder, classifier), before)


def owned_arrays(trace):
    """The arrays ``forward`` made for a trace (``inputs[0]`` is the caller's)."""
    return [*trace.pre_activations, *trace.inputs[1:], trace.z, trace.logits]


class TestForwardInto:
    OUTPUTS = ("z", "logits", "probs", "log_probs")

    @pytest.fixture(params=["identity", "relu"], ids=["identity-output", "relu-output"])
    def model(self, request):
        # Two ReLU hidden layers; the output layer's activation varies, so that
        # z is either the last pre-activation or an array of its own.
        embedder, classifier = tiny_model(hidden=(6, 5))
        embedder.layers[-1].activation = request.param
        return embedder, classifier

    def test_reused_trace_equals_fresh_and_shares_memory(self, model):
        embedder, classifier = model
        rng = np.random.default_rng(7)
        X, X_next = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        earlier = forward(embedder, classifier, X)
        earlier_arrays = owned_arrays(earlier)
        reused = forward(embedder, classifier, X_next, into=earlier)
        fresh = forward(embedder, classifier, X_next)
        for name in self.OUTPUTS:
            assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
        for a, b in zip(owned_arrays(reused), earlier_arrays):
            assert np.shares_memory(a, b)
        grad_logits = rng.standard_normal((9, 2))
        assert backward(reused, grad_logits).tobytes() == backward(fresh, grad_logits).tobytes()

    def test_other_row_count_allocates(self, model):
        embedder, classifier = model
        X = np.random.default_rng(8).standard_normal((9, 4))
        earlier = forward(embedder, classifier, X[:4])
        earlier_bytes = [a.tobytes() for a in owned_arrays(earlier)]
        reused = forward(embedder, classifier, X, into=earlier)
        fresh = forward(embedder, classifier, X)
        for name in self.OUTPUTS:
            assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert not any(np.shares_memory(a, b) for a in owned_arrays(reused) for b in owned_arrays(earlier))
        assert [a.tobytes() for a in owned_arrays(earlier)] == earlier_bytes

    def test_trace_of_another_model_is_not_overwritten(self, model):
        embedder, classifier = model
        other_embedder, other_classifier = tiny_model(hidden=(6, 5))
        X = np.random.default_rng(9).standard_normal((9, 4))
        other = forward(other_embedder, other_classifier, X)
        other_bytes = [a.tobytes() for a in owned_arrays(other)]
        reused = forward(embedder, classifier, X, into=other)
        assert reused.logits.tobytes() == forward(embedder, classifier, X).logits.tobytes()
        assert [a.tobytes() for a in owned_arrays(other)] == other_bytes


class TestFlatParams:
    def test_layout_and_values(self):
        embedder, classifier = tiny_model()
        arrays = [embedder.layers[0].weight, embedder.layers[0].bias,
                  embedder.layers[1].weight, embedder.layers[1].bias, classifier.weight]
        expected = np.concatenate([a.ravel() for a in arrays])
        flat = flat_params(embedder, classifier)
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert np.array_equal(flat, expected)

    def test_model_arrays_are_views(self):
        embedder, classifier = tiny_model()
        X = np.random.default_rng(3).standard_normal((5, 4))
        flat = flat_params(embedder, classifier)
        before = forward(embedder, classifier, X).logits
        flat[:] = 0.0
        assert np.array_equal(forward(embedder, classifier, X).logits, np.zeros((5, 2)))
        flat += 0.5
        assert np.all(embedder.layers[1].bias == 0.5) and np.all(classifier.weight == 0.5)
        assert not np.array_equal(forward(embedder, classifier, X).logits, before)


class TestBackward:
    def test_zero_grads_in_zero_grads_out(self):
        embedder, classifier = tiny_model()
        trace = forward(embedder, classifier, np.ones((1, 4)))
        grad = backward(trace, np.zeros((1, 2)), np.zeros((1, 3)))
        assert grad.shape == flat_params(embedder, classifier).shape
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_classifier_column_gradient_is_z(self):
        # d logits_c / d W[:, c] = z when grad_logits = e_c
        embedder, classifier = tiny_model(seed=3)
        trace = forward(embedder, classifier, np.array([[0.5, -1.0, 2.0, 0.1]]))
        for c in range(2):
            e_c = np.zeros((1, 2))
            e_c[0, c] = 1.0
            grad = backward(trace, e_c)
            expected = np.zeros((3, 2))
            expected[:, c] = trace.z[0]
            assert np.allclose(grad[-6:].reshape(3, 2), expected, atol=1e-15)  # head weight is last

    def test_gradients_match_finite_differences(self):
        # full loss (cross-entropy plus prototype penalty) on a small batch
        rng = np.random.default_rng(7)
        embedder, classifier = tiny_model(seed=5, p=4, hidden=(6,), k=3, C=2)
        X = rng.standard_normal((4, 4))
        Y = np.identity(2)[rng.integers(0, 2, size=4)]
        P = rng.standard_normal((4, 3))
        lambda_p = 1.0 / 3.0
        params = flat_params(embedder, classifier)

        def scalar_loss():
            trace = forward(embedder, classifier, X)
            ce, proto_sq, _, _ = loss(Y, trace, P, lambda_p)
            return (ce + lambda_p * proto_sq) / len(Y)

        numeric = central_difference(scalar_loss, [params], step=1e-5)
        trace = forward(embedder, classifier, X)
        _, _, grad_logits, grad_z = loss(Y, trace, P, lambda_p)
        analytic = backward(trace, grad_logits, grad_z)
        assert max_rel_error([analytic], numeric) < 1e-5

    def test_shape_mismatch_rejected(self):
        embedder, classifier = tiny_model()
        trace = forward(embedder, classifier, np.ones((1, 4)))
        with pytest.raises(ValueError):
            backward(trace, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            backward(trace, np.zeros((1, 2)), np.zeros((1, 4)))


class TestRelevance:
    def test_zero_embedding(self):
        classifier = ClassifierParams(weight=np.array([[1.0, 2.0], [3.0, 4.0]]))
        gamma = relevance(classifier, np.zeros((1, 2)))
        assert np.array_equal(gamma, np.zeros((1, 2, 2)))
        assert np.array_equal(gamma.sum(axis=1), np.zeros((1, 2)))

    def test_hand_example(self):
        classifier = ClassifierParams(weight=np.array([[1.0, 2.0], [3.0, 4.0]]))
        gamma = relevance(classifier, np.array([[1.0, 1.0], [2.0, 0.0]]))
        assert np.array_equal(gamma, [[[1.0, 2.0], [3.0, 4.0]], [[2.0, 4.0], [0.0, 0.0]]])
        assert np.array_equal(gamma.sum(axis=1), [[4.0, 6.0], [2.0, 4.0]])

    def test_column_sums_equal_stored_logits_exactly(self):
        rng = np.random.default_rng(4)
        embedder, classifier = tiny_model(seed=8)
        X = rng.standard_normal((20, 4))
        trace = forward(embedder, classifier, X)
        gamma = relevance(classifier, trace.z)
        # explain_sample stores the column sums as the batch's logits
        stored = explain_sample(embedder, classifier, X)["logits"]
        assert np.array_equal(gamma.sum(axis=1), stored)
        assert np.max(np.abs(stored - trace.logits)) < 1e-12

    def test_wrong_length_rejected(self):
        classifier = ClassifierParams(weight=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            relevance(classifier, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            relevance(classifier, np.zeros(3))  # a vector, not a batch
