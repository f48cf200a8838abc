"""Tests for repro.boosting.gbt."""

import pickle

import numpy as np
import pytest

from repro.boosting.gbt import GradientBoostedClassifier


def xor_data(rng, n=300):
    """The XOR problem: linearly inseparable, easy for depth-2 trees."""
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
    return x, y


def three_class_data(rng, n=300):
    x = rng.uniform(0, 3, size=(n, 1))
    y = np.clip(x[:, 0].astype(np.int64), 0, 2)
    return x, y


class TestGradientBoostedClassifier:
    def test_solves_xor(self, rng):
        x, y = xor_data(rng)
        model = GradientBoostedClassifier(n_estimators=40, max_depth=2)
        model.fit(x, y, rng=rng)
        assert np.mean(model.predict(x) == y) > 0.95

    def test_multiclass(self, rng):
        x, y = three_class_data(rng)
        model = GradientBoostedClassifier(n_estimators=30, max_depth=2)
        model.fit(x, y, rng=rng)
        assert np.mean(model.predict(x) == y) > 0.95

    def test_predict_proba_rows_sum_to_one(self, rng):
        x, y = three_class_data(rng)
        model = GradientBoostedClassifier(n_estimators=10).fit(x, y, rng=rng)
        probs = model.predict_proba(x)
        assert probs.shape == (len(x), 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_base_score_is_prior_with_no_trees(self, rng):
        # With max_depth=0 + constant data, predictions stay near the prior.
        x = np.ones((100, 1))
        y = np.array([0] * 75 + [1] * 25)
        model = GradientBoostedClassifier(n_estimators=1, max_depth=0)
        model.fit(x, y, rng=rng)
        probs = model.predict_proba(x[:1])
        assert probs[0, 0] > probs[0, 1]

    def test_subsample_still_learns(self, rng):
        x, y = xor_data(rng)
        model = GradientBoostedClassifier(
            n_estimators=60, max_depth=2, subsample=0.5
        )
        model.fit(x, y, rng=rng)
        assert np.mean(model.predict(x) == y) > 0.9

    def test_more_rounds_lower_training_loss(self, rng):
        x, y = xor_data(rng)
        few = GradientBoostedClassifier(n_estimators=3, max_depth=2).fit(
            x, y, rng=np.random.default_rng(0)
        )
        many = GradientBoostedClassifier(n_estimators=40, max_depth=2).fit(
            x, y, rng=np.random.default_rng(0)
        )
        def log_loss(model):
            p = np.clip(model.predict_proba(x)[np.arange(len(y)), y], 1e-12, None)
            return -np.log(p).mean()
        assert log_loss(many) < log_loss(few)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedClassifier().predict(np.zeros((2, 2)))

    def test_empty_data_raises(self, rng):
        with pytest.raises(ValueError):
            GradientBoostedClassifier().fit(
                np.zeros((0, 2)), np.zeros(0, dtype=np.int64), rng=rng
            )

    def test_invalid_hyperparams_raise(self):
        with pytest.raises(ValueError):
            GradientBoostedClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedClassifier(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostedClassifier(subsample=0.0)

    def test_binary_labels_all_same_class_handled(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.zeros(20, dtype=np.int64)
        model = GradientBoostedClassifier(n_estimators=2).fit(x, y, rng=rng)
        assert (model.predict(x) == 0).all()


class TestExplicitClassCount:
    def test_missing_top_class_still_gets_a_column(self, rng):
        x, y = xor_data(rng, n=100)
        model = GradientBoostedClassifier(n_estimators=5, max_depth=2)
        model.fit(x, y, rng=rng, n_classes=3)
        probs = model.predict_proba(x)
        assert model.n_classes == 3
        assert probs.shape == (len(x), 3)
        assert (probs[:, 2] < probs.max(axis=1)).all()

    def test_too_few_classes_raise(self, rng):
        x, y = three_class_data(rng, n=50)
        with pytest.raises(ValueError):
            GradientBoostedClassifier().fit(x, y, rng=rng, n_classes=2)
        with pytest.raises(ValueError):
            GradientBoostedClassifier().fit(x, y % 1, rng=rng, n_classes=1)


class TestCompiledEnsemble:
    """The stacked tree arrays are derived state, rebuilt on first use."""

    def test_pickle_drops_and_rebuilds_compiled_arrays(self, rng):
        x, y = three_class_data(rng, n=120)
        model = GradientBoostedClassifier(n_estimators=8, subsample=0.7).fit(
            x, y, rng=np.random.default_rng(0)
        )
        before = model.decision_function(x)
        payload = pickle.dumps(model)
        # Same bytes as a twin that never predicted: nothing derived leaks.
        never_used = GradientBoostedClassifier(n_estimators=8, subsample=0.7).fit(
            x, y, rng=np.random.default_rng(0)
        )
        assert payload == pickle.dumps(never_used)
        assert b"_flat" not in payload
        restored = pickle.loads(payload)
        np.testing.assert_array_equal(restored.decision_function(x), before)

    def test_refit_replaces_compiled_arrays(self, rng):
        x, y = three_class_data(rng, n=120)
        x2, y2 = xor_data(rng, n=120)
        model = GradientBoostedClassifier(n_estimators=6).fit(x, y, rng=rng)
        model.decision_function(x)
        model.fit(x2, y2, rng=np.random.default_rng(3))
        fresh = GradientBoostedClassifier(n_estimators=6).fit(
            x2, y2, rng=np.random.default_rng(3)
        )
        assert model.n_classes == 2
        np.testing.assert_array_equal(
            model.decision_function(x2), fresh.decision_function(x2)
        )

    def test_wrong_width_raises(self, rng):
        x, y = three_class_data(rng, n=60)
        model = GradientBoostedClassifier(n_estimators=3).fit(x, y, rng=rng)
        with pytest.raises(ValueError):
            model.decision_function(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            model.predict(np.zeros(3))
