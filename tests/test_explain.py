import numpy as np
import pytest

from fixedproto.explain import explain_sample, explanation_to_csv_text, explanation_to_doc
from fixedproto.metrics import zero_block_activity
from fixedproto.model import ClassifierParams, EmbedderParams, Layer, init_classifier, init_embedder
from fixedproto.prototypes import FactorLayout


def identity_embedder(dim):
    return EmbedderParams(
        layers=[Layer(weight=np.eye(dim), bias=np.zeros(dim), activation="identity")]
    )


def explain_one(embedder, classifier, x, **kwargs):
    """The explanation of one sample, run as a 1-row batch."""
    (expl,) = explain_sample(embedder, classifier, np.asarray(x, dtype=float)[None], **kwargs)
    return expl


class TestExplainSample:
    def test_zero_embedding_gives_zero_contributions_and_uniform_prediction(self):
        embedder = identity_embedder(3)
        classifier = ClassifierParams(weight=np.ones((3, 4)))
        expl = explain_one(embedder, classifier, np.zeros(3))
        assert np.array_equal(expl.gamma, np.zeros((3, 4)))
        assert np.allclose(expl.probabilities, 0.25, atol=1e-15)
        assert expl.top_positive == [[], [], [], []]
        assert expl.top_negative == [[], [], [], []]

    def test_figure_layout_has_nine_factor_rows_and_seven_free_rows(self):
        layout = FactorLayout(names=("alpha_0", "alpha_1", "alpha_2"), embedding_dim=16)
        embedder = identity_embedder(16)
        classifier = init_classifier(16, 4, seed=0)
        expl = explain_one(embedder, classifier, np.ones(16), layout=layout)
        factor_rows = [l for l in expl.row_labels if not l.startswith("other factor")]
        free_rows = [l for l in expl.row_labels if l.startswith("other factor")]
        assert len(factor_rows) == 9
        assert len(free_rows) == 7
        assert len(expl.row_labels) == 16

    def test_top_contribution_matches_brute_force(self):
        rng = np.random.default_rng(0)
        embedder = identity_embedder(6)
        classifier = ClassifierParams(weight=rng.standard_normal((6, 3)))
        x = rng.standard_normal(6)
        expl = explain_one(embedder, classifier, x)
        gamma = classifier.weight * x[:, None]
        for c in range(3):
            best = max(range(6), key=lambda j: abs(gamma[j, c]))
            tops = expl.top_positive[c] + expl.top_negative[c]
            lead = max(tops, key=lambda t: abs(t[1]))
            assert lead[0] == best
            assert lead[1] == pytest.approx(gamma[best, c], abs=1e-15)

    def test_top_lists_sorted_and_capped(self):
        embedder = identity_embedder(5)
        classifier = ClassifierParams(weight=np.ones((5, 1)))
        expl = explain_one(embedder, classifier, np.array([3.0, -4.0, 1.0, 2.0, -0.5]))
        pos = expl.top_positive[0]
        neg = expl.top_negative[0]
        assert [v for _, v in pos] == [3.0, 2.0, 1.0]
        assert [v for _, v in neg] == [-4.0, -0.5]
        assert len(pos) <= 3 and len(neg) <= 3

    def test_column_sums_equal_logits(self):
        rng = np.random.default_rng(1)
        embedder = init_embedder(4, (6,), 5, seed=0)
        classifier = init_classifier(5, 3, seed=1)
        for expl in explain_sample(embedder, classifier, rng.standard_normal((10, 4))):
            assert np.array_equal(expl.gamma.sum(axis=0), expl.logits)

    def test_probabilities_sum_to_one(self):
        embedder = init_embedder(4, (6,), 5, seed=0)
        classifier = init_classifier(5, 3, seed=1)
        expl = explain_one(embedder, classifier, np.ones(4))
        assert abs(expl.probabilities.sum() - 1.0) < 1e-9

    def test_single_vector_input_rejected(self):
        embedder = identity_embedder(3)
        classifier = ClassifierParams(weight=np.ones((3, 2)))
        with pytest.raises(ValueError):
            explain_sample(embedder, classifier, np.ones(3))

    def test_batch_matches_one_row_batches(self):
        rng = np.random.default_rng(2)
        embedder = init_embedder(4, (6,), 5, seed=0)
        classifier = init_classifier(5, 3, seed=1)
        X = rng.standard_normal((7, 4))
        batch = explain_sample(embedder, classifier, X, sample_ids=[10 + i for i in range(7)])
        for i, expl in enumerate(batch):
            alone = explain_one(embedder, classifier, X[i], sample_ids=[10 + i])
            assert expl.sample_id == alone.sample_id == 10 + i
            assert np.allclose(expl.gamma, alone.gamma, rtol=1e-12, atol=1e-12)
            dims = lambda tops: [[j for j, _ in per_class] for per_class in tops]
            assert dims(expl.top_positive) == dims(alone.top_positive)
            assert dims(expl.top_negative) == dims(alone.top_negative)


class TestExports:
    def make_explanation(self):
        layout = FactorLayout(names=("a",), embedding_dim=5)
        embedder = identity_embedder(5)
        classifier = ClassifierParams(weight=np.arange(10.0).reshape(5, 2))
        return explain_one(
            embedder, classifier, np.array([1.0, 0.0, 0.0, 2.0, -1.0]),
            layout=layout, class_names=("neg", "pos"),
        )

    def test_csv_shape_and_labels(self):
        expl = self.make_explanation()
        lines = explanation_to_csv_text(expl).strip().splitlines()
        assert lines[0] == "dimension,neg,pos"
        assert len(lines) == 1 + 5
        assert lines[1].startswith("a:low,")
        assert lines[4].startswith("other factor 0,")

    def test_json_doc_fields(self):
        expl = self.make_explanation()
        doc = explanation_to_doc(expl)
        assert doc["format"] == "explanation"
        assert doc["class_names"] == ["neg", "pos"]
        assert len(doc["row_labels"]) == 5
        assert set(doc["top_positive"]) == {"neg", "pos"}
        total = np.array(doc["logits"])
        assert np.allclose(total, expl.gamma.sum(axis=0), atol=1e-15)


class TestDimLabels:
    def test_generic_labels_without_layout(self):
        expl = explain_one(identity_embedder(3), ClassifierParams(weight=np.ones((3, 2))), np.ones(3))
        assert expl.row_labels == ["dim 0", "dim 1", "dim 2"]

    def test_layout_mismatch_rejected(self):
        layout = FactorLayout(names=("a",), embedding_dim=5)
        with pytest.raises(ValueError):
            explain_one(identity_embedder(7), ClassifierParams(weight=np.ones((7, 2))), np.ones(7),
                        layout=layout)


class TestZeroBlockActivity:
    def layout(self):
        return FactorLayout(names=("a",), embedding_dim=5)

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
        layout = FactorLayout(names=("a",), embedding_dim=3)
        with pytest.raises(ValueError, match="empty"):
            zero_block_activity(np.zeros((4, 3)), layout)
