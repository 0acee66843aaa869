import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedproto.model import backward, forward, init_params, param_count, param_views, relevance, softmax
from fixedproto.explain import explain_sample
from fixedproto.training import loss

from util import central_difference, max_rel_error, pack


def tiny_model(seed=0, p=4, hidden=(6,), k=3, C=2):
    widths = (p, *hidden, k, C)
    return widths, init_params(widths, seed, seed + 1)


class TestInit:
    def test_shapes(self):
        widths, params = tiny_model(p=20, hidden=(64, 64), k=16, C=4)
        layers, head = param_views(widths, params)
        assert [weight.shape for weight, _ in layers] == [(64, 20), (64, 64), (16, 64)]
        assert [bias.shape for _, bias in layers] == [(64,), (64,), (16,)]
        assert head.shape == (16, 4)
        assert params.shape == (param_count(widths),) == (21 * 64 + 65 * 64 + 65 * 16 + 16 * 4,)

    def test_no_hidden_layers(self):
        widths, params = tiny_model(p=5, hidden=(), k=3)
        layers, _ = param_views(widths, params)
        assert len(layers) == 1
        # The only embedder layer is the last one, so it is linear: negative entries stay.
        X = np.random.default_rng(0).standard_normal((6, 5))
        z = forward(widths, params, X).z
        assert np.any(z < 0) and np.array_equal(z, X @ layers[0][0].T + layers[0][1])

    def test_deterministic(self):
        widths = (7, 5, 4, 3)
        assert init_params(widths, 9, 1).tobytes() == init_params(widths, 9, 1).tobytes()

    def test_seeds_differ(self):
        widths = (7, 5, 4, 3)
        (a, _), head_a = param_views(widths, init_params(widths, 9, 1))
        (b, _), head_b = param_views(widths, init_params(widths, 10, 1))
        assert not np.array_equal(a[0], b[0])
        assert np.array_equal(head_a, head_b)  # the head draws from its own seed

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params((0, 5, 4, 2), 0, 1)
        with pytest.raises(ValueError):
            init_params((4, 2), 0, 1)  # no embedder layer

    def test_draws_in_the_documented_order(self):
        # The layers one by one from the first seed, then the head from the
        # second; each weight U(-sqrt(6/fan_in), sqrt(6/fan_in)), biases zero.
        rng = np.random.default_rng(11)
        w0 = rng.uniform(-np.sqrt(6.0 / 3), np.sqrt(6.0 / 3), size=(4, 3))
        w1 = rng.uniform(-np.sqrt(6.0 / 4), np.sqrt(6.0 / 4), size=(2, 4))
        head = np.random.default_rng(12).uniform(-np.sqrt(6.0 / 2), np.sqrt(6.0 / 2), size=(2, 5))
        expected = np.concatenate([w0.ravel(), np.zeros(4), w1.ravel(), np.zeros(2), head.ravel()])
        assert init_params((3, 4, 2, 5), 11, 12).tobytes() == expected.tobytes()


class TestParamViews:
    def test_views_of_the_vector_in_the_layout(self):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(shape) for shape in [(6, 4), (6,), (3, 6), (3,), (3, 2)]]
        widths, params = pack([(arrays[0], arrays[1]), (arrays[2], arrays[3])], arrays[4])
        assert widths == (4, 6, 3, 2)
        layers, head = param_views(widths, params)
        for view, array in zip([a for layer in layers for a in layer] + [head], arrays):
            assert view.tobytes() == array.tobytes()
            assert np.shares_memory(view, params)
        params[:] = 0.5
        assert np.all(layers[1][1] == 0.5) and np.all(head == 0.5)

    def test_wrong_length_rejected(self):
        widths, params = tiny_model()
        with pytest.raises(ValueError, match="parameter vector"):
            param_views(widths, params[:-1])
        with pytest.raises(ValueError, match="parameter vector"):
            forward((4, 6, 3, 3), params, np.ones((1, 4)))


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        widths, params = pack([(np.zeros((3, 4)), np.zeros(3))], np.zeros((3, 5)))
        trace = forward(widths, params, np.ones((1, 4)))
        assert np.array_equal(trace.logits, np.zeros((1, 5)))
        assert np.allclose(trace.probs, np.full((1, 5), 0.2), atol=1e-15)

    def test_hand_computed_single_layer(self):
        # z = W x with W = [[1, 2], [3, 4]], x = (1, 1) -> z = (3, 7)
        widths, params = pack([(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))], np.eye(2))
        trace = forward(widths, params, np.array([[1.0, 1.0]]))
        assert np.array_equal(trace.z, [[3.0, 7.0]])
        assert np.array_equal(trace.logits, [[3.0, 7.0]])

    def test_hidden_layers_relu_last_layer_linear(self):
        # x = 2: the hidden layer gives (2, -2), which its ReLU clips to (2, 0);
        # the last layer gives -2 and keeps it.
        weight, bias = np.array([[1.0], [-1.0]]), np.zeros(2)
        widths, params = pack([(weight, bias), (np.array([[-1.0, 1.0]]), np.zeros(1))], np.ones((1, 1)))
        x = np.array([[2.0]])
        trace = forward(widths, params, x)
        assert np.array_equal(x @ weight.T + bias, [[2.0, -2.0]])
        assert np.array_equal(trace.inputs[1], np.maximum(x @ weight.T + bias, 0.0))
        assert np.array_equal(trace.inputs[1], [[2.0, 0.0]])
        assert np.array_equal(trace.z, [[-2.0]])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        widths, params = tiny_model()
        trace = forward(widths, params, rng.standard_normal((10, 4)))
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(trace.probs >= 0)

    def test_softmax_extreme_logits(self):
        probs, log_probs = softmax(np.array([1e3, -1e3, 0.0]))
        assert np.all(np.isfinite(probs))
        assert np.all(np.isfinite(log_probs))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(1)
        widths, params = tiny_model()
        X = rng.standard_normal((5, 4))
        batch = forward(widths, params, X)
        for i in range(5):
            single = forward(widths, params, X[i : i + 1])  # a 1-row batch
            assert np.allclose(single.z[0], batch.z[i], atol=1e-12)
            assert np.allclose(single.probs[0], batch.probs[i], atol=1e-12)

    def test_dimension_mismatch(self):
        widths, params = tiny_model()
        with pytest.raises(ValueError):
            forward(widths, params, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            forward(widths, params, np.zeros(4))  # a vector, not a batch

    def test_no_parameter_side_effects(self):
        widths, params = tiny_model()
        before = params.copy()
        forward(widths, params, np.ones((1, 4)))
        assert np.array_equal(params, before)

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["no-hidden", "one-hidden", "two-hidden"])
    def test_inference_keeps_no_inputs_and_the_bits(self, hidden):
        widths, params = tiny_model(seed=4, hidden=hidden)
        X = np.random.default_rng(2).standard_normal((9, 4))
        kept = forward(widths, params, X)
        inference = forward(widths, params, X, keep_inputs=False)
        assert inference.inputs == []
        for name in ("z", "logits", "probs", "log_probs"):
            assert getattr(inference, name).tobytes() == getattr(kept, name).tobytes(), name
        # An inference trace has no layer arrays to lend a later pass.
        again = forward(widths, params, X, into=inference)
        assert again.logits.tobytes() == kept.logits.tobytes()
        assert not np.shares_memory(again.z, inference.z)


def owned_arrays(trace):
    """The arrays ``forward`` made for a trace (``inputs[0]`` is the caller's)."""
    return [*trace.inputs[1:], trace.z, trace.logits]


class TestForwardInto:
    OUTPUTS = ("z", "logits", "probs", "log_probs")

    @pytest.fixture(params=[(6, 5)], ids=["identity-output"])
    def model(self, request):
        # ReLU hidden layers and the linear output layer, so z is the last
        # pre-activation.
        return tiny_model(hidden=request.param)

    def test_reused_trace_equals_fresh_and_shares_memory(self, model):
        widths, params = model
        rng = np.random.default_rng(7)
        X, X_next = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        earlier = forward(widths, params, X)
        earlier_arrays = owned_arrays(earlier)
        reused = forward(widths, params, X_next, into=earlier)
        fresh = forward(widths, params, X_next)
        for name in self.OUTPUTS:
            assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
        for a, b in zip(owned_arrays(reused), earlier_arrays):
            assert np.shares_memory(a, b)
        grad_logits = rng.standard_normal((9, 2))
        assert backward(reused, grad_logits).tobytes() == backward(fresh, grad_logits).tobytes()

    def test_other_row_count_allocates(self, model):
        widths, params = model
        X = np.random.default_rng(8).standard_normal((9, 4))
        earlier = forward(widths, params, X[:4])
        earlier_bytes = [a.tobytes() for a in owned_arrays(earlier)]
        reused = forward(widths, params, X, into=earlier)
        fresh = forward(widths, params, X)
        for name in self.OUTPUTS:
            assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert not any(np.shares_memory(a, b) for a in owned_arrays(reused) for b in owned_arrays(earlier))
        assert [a.tobytes() for a in owned_arrays(earlier)] == earlier_bytes

    def test_trace_of_another_model_is_not_overwritten(self, model):
        widths, params = model
        other_widths, other_params = tiny_model(hidden=(6, 5))  # equal values, another vector
        X = np.random.default_rng(9).standard_normal((9, 4))
        other = forward(other_widths, other_params, X)
        other_bytes = [a.tobytes() for a in owned_arrays(other)]
        reused = forward(widths, params, X, into=other)
        assert reused.logits.tobytes() == forward(widths, params, X).logits.tobytes()
        assert [a.tobytes() for a in owned_arrays(other)] == other_bytes

    def test_trace_of_other_widths_on_the_same_vector_is_not_overwritten(self):
        # Widths (4, 2, 3) and (4, 1, 11) both take 16 parameters.
        params = np.random.default_rng(10).standard_normal(16)
        X = np.random.default_rng(11).standard_normal((9, 4))
        other = forward((4, 2, 3), params, X)
        other_bytes = [a.tobytes() for a in owned_arrays(other)]
        reused = forward((4, 1, 11), params, X, into=other)
        assert reused.logits.tobytes() == forward((4, 1, 11), params, X).logits.tobytes()
        assert [a.tobytes() for a in owned_arrays(other)] == other_bytes


    def test_reused_trace_hands_on_the_gradient_vector(self, model):
        # The vector backward writes is allocated once per model: a trace
        # made from an earlier one, even for another row count, writes into it.
        widths, params = model
        rng = np.random.default_rng(12)
        earlier = forward(widths, params, rng.standard_normal((9, 4)))
        first = backward(earlier, rng.standard_normal((9, 2)))
        X, grad_logits = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        reused = forward(widths, params, X, into=earlier)
        second = backward(reused, grad_logits)
        assert second is first
        assert second.tobytes() == backward(forward(widths, params, X), grad_logits).tobytes()


class TestStack:
    WIDTHS = (4, 6, 5, 3, 2)

    def stack(self):
        params = np.stack([init_params(self.WIDTHS, seed, seed + 10) for seed in range(3)])
        rng = np.random.default_rng(13)
        return params, rng.standard_normal((3, 7, 4)), rng.standard_normal((3, 7, 2)), rng.standard_normal((3, 7, 3))

    def test_views_of_a_stack_carry_the_run_axis(self):
        params = self.stack()[0]
        layers, head = param_views(self.WIDTHS, params)
        assert [(w.shape, b.shape) for w, b in layers] == [((3, 6, 4), (3, 6)), ((3, 5, 6), (3, 5)),
                                                          ((3, 3, 5), (3, 3))]
        assert head.shape == (3, 3, 2)
        for r in range(3):
            alone_layers, alone_head = param_views(self.WIDTHS, params[r])
            for (w, b), (alone_w, alone_b) in zip(layers, alone_layers):
                assert np.shares_memory(w, params) and np.shares_memory(b, params)
                assert w[r].tobytes() == alone_w.tobytes() and b[r].tobytes() == alone_b.tobytes()
            assert head[r].tobytes() == alone_head.tobytes()

    def test_each_run_of_a_stack_gets_the_bits_of_its_own_pass(self):
        params, X, grad_logits, grad_z = self.stack()
        trace = forward(self.WIDTHS, params, X)
        grad = backward(trace, grad_logits, grad_z)
        for r in range(3):
            alone = forward(self.WIDTHS, params[r].copy(), X[r])
            for name in ("z", "logits", "probs", "log_probs"):
                assert getattr(trace, name)[r].tobytes() == getattr(alone, name).tobytes(), name
            assert grad[r].tobytes() == backward(alone, grad_logits[r], grad_z[r]).tobytes()

    def test_input_without_the_run_axis_rejected(self):
        params, X, _, _ = self.stack()
        with pytest.raises(ValueError, match=r"embedder expects \(3, n, 4\)"):
            forward(self.WIDTHS, params, X[0])


def reference_gradient(widths, params, X, gL, gE):
    """The gradient vector of one run by allocating expressions, with each
    hidden layer's pre-activation recomputed and its ReLU mask ``pre > 0``."""
    layers, head = param_views(widths, params)
    inputs, pres, A = [], [], X
    for i, (weight, bias) in enumerate(layers):
        inputs.append(A)
        pres.append(A @ weight.T + bias)
        A = np.maximum(pres[-1], 0.0) if i < len(layers) - 1 else pres[-1]
    grads = [None] * len(layers)
    gA = gL @ head.T + gE
    for i in reversed(range(len(layers))):
        gS = gA * (pres[i] > 0) if i < len(layers) - 1 else gA
        grads[i] = (gS.T @ inputs[i], gS.sum(axis=0))
        gA = gS @ layers[i][0]
    return np.concatenate([g.ravel() for pair in grads for g in pair] + [(A.T @ gL).ravel()])


def test_relu_output_is_positive_exactly_where_its_input_is():
    # The identity that backward's mask rests on, for every kind of float:
    # zeros of both signs, subnormals, infinities and nan.
    S = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1.7e308, np.inf, -np.inf, np.nan, -np.nan])
    assert np.array_equal(np.maximum(S, 0.0) > 0, S > 0)


# Zeros of both signs, so pre-activations of exactly 0.0 are common (the
# matrix product sums from +0.0, so it gives no -0.0; the test above covers
# -0.0), and magnitudes whose products and sums reach 1e300 or overflow to
# inf and nan.
EDGE_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 1e154, -1e300])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_backward_masks_relu_as_the_pre_activations_would(data):
    """``backward`` reads the ReLU mask from the activations; its gradient has
    the bytes of a reference that masks with the pre-activations, on inputs
    whose pre-activations are exactly zero, huge, infinite or nan, for one
    run and for each run of an ``(R, P)`` stack."""
    widths = (2, *data.draw(st.sampled_from([(3,), (3, 2)])), 2, 2)
    runs, n = data.draw(st.sampled_from([(), (2,)])), data.draw(st.integers(1, 4))
    draw = lambda *shape: np.array(data.draw(st.lists(EDGE_VALUES, min_size=int(np.prod(shape)),
                                                      max_size=int(np.prod(shape))))).reshape(shape)
    params = draw(*runs, param_count(widths))
    X, gL, gE = draw(*runs, n, widths[0]), draw(*runs, n, widths[-1]), draw(*runs, n, widths[-2])
    with np.errstate(all="ignore"):
        grad = backward(forward(widths, params, X), gL, gE)
        if runs:
            reference = np.stack([reference_gradient(widths, params[r], X[r], gL[r], gE[r])
                                  for r in range(runs[0])])
        else:
            reference = reference_gradient(widths, params, X, gL, gE)
    assert grad.tobytes() == reference.tobytes()


class TestBackward:
    def test_zero_grads_in_zero_grads_out(self):
        widths, params = tiny_model()
        trace = forward(widths, params, np.ones((1, 4)))
        grad = backward(trace, np.zeros((1, 2)), np.zeros((1, 3)))
        assert grad.shape == params.shape
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_classifier_column_gradient_is_z(self):
        # d logits_c / d W[:, c] = z when grad_logits = e_c
        widths, params = tiny_model(seed=3)
        trace = forward(widths, params, np.array([[0.5, -1.0, 2.0, 0.1]]))
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
        widths, params = tiny_model(seed=5, p=4, hidden=(6,), k=3, C=2)
        X = rng.standard_normal((4, 4))
        Y = np.identity(2)[rng.integers(0, 2, size=4)]
        P = rng.standard_normal((4, 3))
        lambda_p = 1.0 / 3.0

        def scalar_loss():
            trace = forward(widths, params, X)
            ce, proto_sq, _, _ = loss(Y, trace, P, lambda_p)
            return (ce + lambda_p * proto_sq) / len(Y)

        numeric = central_difference(scalar_loss, [params], step=1e-5)
        trace = forward(widths, params, X)
        _, _, grad_logits, grad_z = loss(Y, trace, P, lambda_p)
        analytic = backward(trace, grad_logits, grad_z)
        assert max_rel_error([analytic], numeric) < 1e-5

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["no-hidden", "one-hidden", "two-hidden"])
    def test_vector_is_the_allocating_expressions_in_the_layout(self, hidden):
        rng = np.random.default_rng(11)
        widths, params = tiny_model(seed=2, hidden=hidden)
        X = rng.standard_normal((7, 4))
        gL, gE = rng.standard_normal((7, 2)), rng.standard_normal((7, 3))
        reference = reference_gradient(widths, params, X, gL, gE)
        assert backward(forward(widths, params, X), gL, gE).tobytes() == reference.tobytes()

    def test_inference_trace_refused(self):
        widths, params = tiny_model()
        trace = forward(widths, params, np.ones((1, 4)), keep_inputs=False)
        with pytest.raises(ValueError, match=r"^the trace was made for inference"):
            backward(trace, np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        widths, params = tiny_model()
        trace = forward(widths, params, np.ones((1, 4)))
        with pytest.raises(ValueError):
            backward(trace, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            backward(trace, np.zeros((1, 2)), np.zeros((1, 4)))


class TestRelevance:
    def test_zero_embedding(self):
        gamma = relevance(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((1, 2)))
        assert np.array_equal(gamma, np.zeros((1, 2, 2)))
        assert np.array_equal(gamma.sum(axis=1), np.zeros((1, 2)))

    def test_hand_example(self):
        gamma = relevance(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 1.0], [2.0, 0.0]]))
        assert np.array_equal(gamma, [[[1.0, 2.0], [3.0, 4.0]], [[2.0, 4.0], [0.0, 0.0]]])
        assert np.array_equal(gamma.sum(axis=1), [[4.0, 6.0], [2.0, 4.0]])

    def test_column_sums_equal_stored_logits_exactly(self):
        rng = np.random.default_rng(4)
        widths, params = tiny_model(seed=8)
        X = rng.standard_normal((20, 4))
        trace = forward(widths, params, X)
        gamma = relevance(param_views(widths, params)[1], trace.z)
        # explain_sample stores the column sums as the batch's logits
        stored = explain_sample(widths, params, X)["logits"]
        assert np.array_equal(gamma.sum(axis=1), stored)
        assert np.max(np.abs(stored - trace.logits)) < 1e-12

    def test_wrong_length_rejected(self):
        head = np.zeros((3, 2))
        with pytest.raises(ValueError):
            relevance(head, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            relevance(head, np.zeros(3))  # a vector, not a batch
