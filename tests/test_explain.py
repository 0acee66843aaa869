import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedproto.explain import (RELEVANCE_TOL, SLICE_ROWS, check_explainable, explain_sample,
                                explanation_to_csv_text, explanation_to_doc)
from fixedproto.metrics import zero_block_activity
from fixedproto.model import forward, init_params, param_views, relevance
from util import factor_extractor, pack


def identity_model(head):
    """An identity embedder (one linear layer, z = x) under the head ``(k, C)``."""
    dim = head.shape[0]
    return pack([(np.eye(dim), np.zeros(dim))], head)


def explain_one(model, x, **kwargs):
    """The explanation of one sample, run as a 1-row batch."""
    return explain_sample(*model, np.asarray(x, dtype=float)[None], **kwargs)


class TestExplainSample:
    def test_zero_embedding_gives_zero_contributions_and_uniform_prediction(self):
        expl = explain_one(identity_model(np.ones((3, 4))), np.zeros(3))
        assert np.array_equal(expl["gamma"][0], np.zeros((3, 4)))
        assert np.allclose(expl["probabilities"][0], 0.25, atol=1e-15)

    def test_figure_layout_has_nine_factor_rows_and_seven_free_rows(self):
        layout = factor_extractor(("alpha_0", "alpha_1", "alpha_2"), 16)
        head = np.random.default_rng(0).uniform(-np.sqrt(6 / 16), np.sqrt(6 / 16), size=(16, 4))
        expl = explain_one(identity_model(head), np.ones(16), layout=layout)
        factor_rows = [l for l in expl["row_labels"] if not l.startswith("other factor")]
        free_rows = [l for l in expl["row_labels"] if l.startswith("other factor")]
        assert len(factor_rows) == 9
        assert len(free_rows) == 7
        assert len(expl["row_labels"]) == 16

    def test_column_sums_equal_logits(self):
        rng = np.random.default_rng(1)
        model = (4, 6, 5, 3), init_params((4, 6, 5, 3), 0, 1)
        expl = explain_sample(*model, rng.standard_normal((10, 4)))
        for i in range(10):
            assert np.array_equal(expl["gamma"][i].sum(axis=0), expl["logits"][i])

    def test_probabilities_sum_to_one(self):
        model = (4, 6, 5, 3), init_params((4, 6, 5, 3), 0, 1)
        expl = explain_one(model, np.ones(4))
        assert abs(expl["probabilities"][0].sum() - 1.0) < 1e-9

    def test_single_vector_input_rejected(self):
        with pytest.raises(ValueError):
            explain_sample(*identity_model(np.ones((3, 2))), np.ones(3))

    def test_batch_matches_one_row_batches(self):
        rng = np.random.default_rng(2)
        model = (4, 6, 5, 3), init_params((4, 6, 5, 3), 0, 1)
        X = rng.standard_normal((7, 4))
        batch = explain_sample(*model, X, sample_ids=[10 + i for i in range(7)])
        for i in range(7):
            alone = explain_one(model, X[i], sample_ids=[10 + i])
            assert batch["sample_ids"][i] == alone["sample_ids"][0] == 10 + i
            assert np.allclose(batch["gamma"][i], alone["gamma"][0], rtol=1e-12, atol=1e-12)


class TestCheckExplainable:
    """``check_explainable`` checks ``SLICE_ROWS`` rows at a time; three full
    slices and a short fourth show the slices add up to the whole batch."""

    N = 3 * SLICE_ROWS + 5
    WIDTHS = (4, 6, 5, 3)

    def trace(self, X):
        params = init_params(self.WIDTHS, 0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return param_views(self.WIDTHS, params)[1], forward(self.WIDTHS, params, X)

    def test_sums_are_the_whole_batch_relevance_sums(self):
        head, trace = self.trace(np.random.default_rng(3).standard_normal((self.N, 4)))
        sums = check_explainable(head, trace)
        assert sums.tobytes() == relevance(head, trace.z).sum(axis=1).tobytes()

    @pytest.mark.parametrize("feature, reason", [
        (1e300, "its logits or its embedding's squared norm are not finite"),
        (1e150, "its relevance sums miss its logits by"),
    ], ids=["overflow", "rounding"])
    def test_bad_row_in_the_third_slice_is_named_by_its_own_id(self, feature, reason):
        X = np.random.default_rng(4).standard_normal((self.N, 4))
        bad = 2 * SLICE_ROWS + 7
        X[bad, 0] = feature
        head, trace = self.trace(X)
        with pytest.raises(ValueError, match=f"^sample {bad} is beyond the model's range: {reason}"):
            check_explainable(head, trace)
        ids = [1000 + i for i in range(self.N)]
        with pytest.raises(ValueError, match=f"^sample {1000 + bad} is beyond the model's range: {reason}"):
            check_explainable(head, trace, ids)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.integers(1, 64), C=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
           scales=st.lists(st.sampled_from([1e-6, 0.5, 0.98, 1.02, 2.0, 1e6]), min_size=1, max_size=5))
    def test_rows_beyond_the_rounding_bound_are_refused_and_the_others_keep_the_identity(self, k, C, seed,
                                                                                         scales):
        # Row i's largest sum of absolute contributions, taken from its
        # relevance, is put at scales[i] times the bound 1e-9 / (2 (k + 1) u).
        rng = np.random.default_rng(seed)
        head = rng.standard_normal((k, C))
        z = rng.standard_normal((len(scales), k))
        size = np.abs(relevance(head, z)).sum(axis=1).max(axis=1)
        z *= (np.array(scales) * RELEVANCE_TOL / (2 * (k + 1) * 2.0**-53) / size)[:, None]
        trace = SimpleNamespace(z=z, logits=z @ head)
        beyond = [i for i, scale in enumerate(scales) if scale > 1]
        if beyond:
            with pytest.raises(ValueError, match=f"^sample {beyond[0]} is beyond the model's range: its relevance "
                                                 f"sums miss its logits by up to "):
                check_explainable(head, trace)
        within = [i for i, scale in enumerate(scales) if scale < 1]
        sums = check_explainable(head, SimpleNamespace(z=z[within], logits=trace.logits[within]))
        assert np.abs(sums - trace.logits[within]).max(initial=0.0) <= RELEVANCE_TOL


# Few distinct magnitudes, zero among them, so ties and zero contributions are common.
SMALL_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_row_renders_as_a_brute_force_reference(data):
    """Each row's CSV text and the batch document, ties and zeros included,
    against a reference built per row."""
    n, k, C = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    weight = np.array(data.draw(st.lists(SMALL_VALUES, min_size=k * C, max_size=k * C))).reshape(k, C)
    X = np.array(data.draw(st.lists(SMALL_VALUES, min_size=n * k, max_size=n * k))).reshape(n, k)
    ids = [3 * i + 1 for i in range(n)]
    expl = explain_sample(*identity_model(weight), X, sample_ids=ids)
    names, labels = [str(c) for c in range(C)], [f"dim {j}" for j in range(k)]
    doc = explanation_to_doc(expl)
    assert list(doc) == ["format", "version", "class_names", "row_labels", "rows"]
    assert (doc["format"], doc["version"], doc["class_names"], doc["row_labels"]) == (
        "explanations", 2, names, labels)
    assert len(doc["rows"]) == n
    for i in range(n):
        gamma = weight * X[i][:, None]
        csv = "".join(f"{label}," + ",".join(repr(float(v)) for v in gamma[j]) + "\n"
                      for j, label in enumerate(labels))
        assert explanation_to_csv_text(expl, i) == "dimension," + ",".join(names) + "\n" + csv
        row = doc["rows"][i]
        assert list(row) == ["sample_id", "probabilities", "logits", "gamma"]
        reference = {
            "sample_id": ids[i], "probabilities": row["probabilities"], "logits": gamma.sum(axis=0).tolist(),
            "gamma": gamma.tolist(),
        }
        assert json.dumps(row, indent=2) == json.dumps(reference, indent=2)
        shifted = np.exp(gamma.sum(axis=0) - gamma.sum(axis=0).max())
        assert np.allclose(row["probabilities"], shifted / shifted.sum(), rtol=0, atol=1e-15)


class TestExports:
    def make_explanation(self):
        layout = factor_extractor(("a",), 5)
        return explain_one(
            identity_model(np.arange(10.0).reshape(5, 2)), np.array([1.0, 0.0, 0.0, 2.0, -1.0]),
            layout=layout, class_names=("neg", "pos"),
        )

    def test_csv_shape_and_labels(self):
        expl = self.make_explanation()
        lines = explanation_to_csv_text(expl, 0).strip().splitlines()
        assert lines[0] == "dimension,neg,pos"
        assert len(lines) == 1 + 5
        assert lines[1].startswith("a:low,")
        assert lines[4].startswith("other factor 0,")

    def test_json_doc_fields(self):
        expl = self.make_explanation()
        doc = explanation_to_doc(expl)
        assert doc["format"] == "explanations"
        assert doc["class_names"] == ["neg", "pos"]
        assert doc["row_labels"][0] == "a:low" and len(doc["row_labels"]) == 5
        (row,) = doc["rows"]
        assert list(row) == ["sample_id", "probabilities", "logits", "gamma"]
        assert np.array(row["gamma"]).shape == (5, 2)
        total = np.array(row["logits"])
        assert np.allclose(total, expl["gamma"][0].sum(axis=0), atol=1e-15)


class TestDimLabels:
    def test_generic_labels_without_layout(self):
        expl = explain_one(identity_model(np.ones((3, 2))), np.ones(3))
        assert expl["row_labels"] == ["dim 0", "dim 1", "dim 2"]

    def test_layout_mismatch_rejected(self):
        layout = factor_extractor(("a",), 5)
        with pytest.raises(ValueError):
            explain_one(identity_model(np.ones((7, 2))), np.ones(7), layout=layout)


class TestZeroBlockActivity:
    def layout(self):
        return factor_extractor(("a",), 5)

    def test_prototype_exact_embeddings_have_zero_activity(self):
        Z = np.zeros((10, 5))
        Z[:, 0] = 1.0
        assert np.array_equal(zero_block_activity(Z, self.layout()), np.zeros(2))

    def test_single_sample(self):
        z = np.array([[0.0, 1.0, 0.0, 1.0, -2.0]])
        assert np.array_equal(zero_block_activity(z, self.layout()), [1.0, 2.0])

    def test_standard_normal_mean_absolute(self):
        rng = np.random.default_rng(0)
        Z = np.zeros((200000, 5))
        Z[:, 3:] = rng.standard_normal((200000, 2))
        means = zero_block_activity(Z, self.layout())
        assert np.max(np.abs(means - np.sqrt(2.0 / np.pi))) < 0.01

    def test_empty_zero_block_rejected(self):
        layout = factor_extractor(("a",), 3)
        with pytest.raises(ValueError, match="empty"):
            zero_block_activity(np.zeros((4, 3)), layout)
