import numpy as np
import pytest

from fixedproto.metrics import accuracy, disentanglement_report, separation_report
from fixedproto.prototypes import FactorLayout


class TestAccuracy:
    def test_all_correct(self):
        preds = np.array([[0.9, 0.1], [0.2, 0.8]])
        truth = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(preds, truth) == 1.0

    def test_three_of_four(self):
        preds = np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
        truth = np.identity(2)[[0, 0, 1, 1]]
        assert accuracy(preds, truth) == 0.75

    def test_uniform_random_predictions_near_chance(self):
        rng = np.random.default_rng(0)
        n, C = 40000, 4
        preds = rng.random((n, C))
        truth = np.identity(C)[rng.integers(0, C, size=n)]
        assert accuracy(preds, truth) == pytest.approx(0.25, abs=0.02)

    def test_argmax_ties_go_to_lowest_index(self):
        preds = np.array([[0.5, 0.5]])
        assert accuracy(preds, np.array([[1.0, 0.0]])) == 1.0
        assert accuracy(preds, np.array([[0.0, 1.0]])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), np.zeros((0, 3)))


class TestSeparationReport:
    def test_prototype_exact_embeddings(self):
        protos = np.eye(3)
        labels = np.identity(3)[np.repeat(np.arange(3), 4)]
        Z = protos[np.repeat(np.arange(3), 4)]
        report = separation_report(Z, labels, prototypes=Z)
        assert report["mean_abs_cos"] == 0.0
        assert report["mean_prototype_dist"] == 0.0
        assert report["mean_within_class_dist"] == 0.0

    def test_identical_embeddings_have_cosine_one(self):
        Z = np.tile(np.array([1.0, 1.0]), (6, 1))
        labels = np.identity(2)[np.tile([0, 1], 3)]
        report = separation_report(Z, labels)
        assert report["mean_abs_cos"] == pytest.approx(1.0, abs=1e-12)
        assert report["max_abs_cos"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_orthogonal_centroids(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        labels = np.identity(2)[[0, 0, 1, 1]]
        report = separation_report(Z, labels)
        assert report["mean_abs_cos"] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report["centroids"], [[1.0, 0.0], [0.0, 1.0]])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((30, 5))
        labels = np.identity(3)[rng.integers(0, 3, size=30)]
        # ensure all classes present
        labels[:3] = np.identity(3)
        base = separation_report(Z, labels)
        perm = rng.permutation(30)
        shuffled = separation_report(Z[perm], labels[perm])
        assert shuffled["mean_abs_cos"] == pytest.approx(base["mean_abs_cos"], abs=1e-12)
        assert shuffled["mean_within_class_dist"] == pytest.approx(base["mean_within_class_dist"], abs=1e-12)

    def test_absent_class_rejected(self):
        Z = np.zeros((4, 2))
        labels = np.identity(3)[[0, 0, 1, 1]]
        with pytest.raises(ValueError, match="absent"):
            separation_report(Z, labels)

    def test_ranges(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((40, 6))
        labels = np.identity(4)[np.repeat(np.arange(4), 10)]
        P = rng.standard_normal((40, 6))
        report = separation_report(Z, labels, prototypes=P)
        assert -1.0 <= report["mean_abs_cos"] <= 1.0
        assert -1.0 <= report["max_abs_cos"] <= 1.0
        assert report["mean_within_class_dist"] >= 0.0
        assert report["mean_prototype_dist"] >= 0.0


def prototype_exact_embeddings(n_per_combo=4, m=2, k=8, seed=0):
    """Embeddings equal to factor-coded prototypes, all level combos present."""
    rng = np.random.default_rng(seed)
    combos = [(a, b) for a in range(3) for b in range(3)]
    levels = np.array(combos * n_per_combo)
    perm = rng.permutation(len(levels))
    levels = levels[perm]
    Z = np.zeros((len(levels), k))
    for i, (a, b) in enumerate(levels):
        Z[i, a] = 1.0
        Z[i, 3 + b] = 1.0
    return Z, levels


class TestDisentanglementReport:
    def test_prototype_exact_embeddings_give_perfect_designated_probes(self):
        Z, levels = prototype_exact_embeddings()
        layout = FactorLayout(names=("a", "b"), embedding_dim=8)
        report = disentanglement_report(Z, levels, layout)
        for probe in report["factors"]:
            assert probe["designated_accuracy"] == 1.0

    def test_constant_zero_block_probes_fall_back_to_majority(self):
        Z, levels = prototype_exact_embeddings(n_per_combo=40)
        layout = FactorLayout(names=("a", "b"), embedding_dim=8)
        report = disentanglement_report(Z, levels, layout)
        for f, probe in enumerate(report["factors"]):
            train_levels = levels[0::2, f]
            eval_levels = levels[1::2, f]
            counts = np.bincount(train_levels, minlength=3)
            majority = int(np.argmax(counts))
            expected = float(np.mean(eval_levels == majority))
            assert probe["zero_block_accuracy"] == expected
            # balanced levels: the fallback sits near chance
            assert abs(probe["zero_block_accuracy"] - 1.0 / 3.0) < 0.1

    def test_zero_block_mean_abs(self):
        Z, levels = prototype_exact_embeddings()
        layout = FactorLayout(names=("a", "b"), embedding_dim=8)
        report = disentanglement_report(Z, levels, layout)
        assert report["zero_block_mean_abs"] == 0.0

    def test_independent_factors_do_not_leak(self):
        Z, levels = prototype_exact_embeddings(n_per_combo=8)
        layout = FactorLayout(names=("a", "b"), embedding_dim=8)
        report = disentanglement_report(Z, levels, layout)
        for probe in report["factors"]:
            assert probe["other_factors_accuracy"] < 0.6

    def test_empty_zero_block_reports_none(self):
        Z, levels = prototype_exact_embeddings(k=6)
        layout = FactorLayout(names=("a", "b"), embedding_dim=6)
        report = disentanglement_report(Z, levels, layout)
        assert report["zero_block_mean_abs"] is None
        assert all(p["zero_block_accuracy"] is None for p in report["factors"])

    def test_single_factor_has_no_other_dims(self):
        Z = np.zeros((20, 5))
        # pattern mixes levels across the probe's even/odd split
        levels = np.tile([0, 0, 1, 1], 5)[:, None]
        Z[np.arange(20), levels[:, 0]] = 1.0
        layout = FactorLayout(names=("solo",), embedding_dim=5)
        report = disentanglement_report(Z, levels, layout)
        assert report["factors"][0]["other_factors_accuracy"] is None
        assert report["factors"][0]["designated_accuracy"] == 1.0

    def test_degenerate_factor_rejected(self):
        Z = np.zeros((10, 5))
        levels = np.zeros((10, 1), dtype=int)
        layout = FactorLayout(names=("a",), embedding_dim=5)
        with pytest.raises(ValueError, match="distinct levels"):
            disentanglement_report(Z, levels, layout)
