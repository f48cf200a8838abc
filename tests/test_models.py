"""Tests for repro.models — the DDA experts (tiny configurations)."""

import numpy as np
import pytest

from repro.models.base import DDAModel
from repro.models.bovw_model import BoVWModel
from repro.models.ddm import DDMModel
from repro.models.registry import (
    available_models,
    create_model,
    default_committee_names,
    register_model,
)
from repro.models.vgg import VGGModel

TINY = {
    "VGG16": dict(epochs=3, width=4),
    "BoVW": dict(epochs=15, vocabulary_size=8),
    "DDM": dict(epochs=4, width=4, head_epochs=15),
}


@pytest.fixture(scope="module")
def split():
    from repro.data.dataset import build_dataset, train_test_split

    dataset = build_dataset(n_images=60, rng=np.random.default_rng(21))
    return train_test_split(dataset, n_train=45, rng=np.random.default_rng(22))


@pytest.fixture(scope="module", params=["VGG16", "BoVW", "DDM"])
def fitted_model(request, split):
    train, _ = split
    model = create_model(request.param, **TINY[request.param])
    model.fit(train, np.random.default_rng(23))
    return model


class TestDDAModelInterface:
    def test_predict_proba_shape_and_normalization(self, fitted_model, split):
        _, test = split
        probs = fitted_model.predict_proba(test)
        assert probs.shape == (len(test), 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_predict_is_argmax(self, fitted_model, split):
        _, test = split
        probs = fitted_model.predict_proba(test)
        np.testing.assert_array_equal(
            fitted_model.predict(test), np.argmax(probs, axis=1)
        )

    def test_better_than_chance_on_train(self, fitted_model, split):
        train, _ = split
        accuracy = np.mean(fitted_model.predict(train) == train.labels())
        assert accuracy > 0.40  # 3 classes: chance is ~0.33

    def test_retrain_accepts_crowd_labels(self, fitted_model, split):
        train, _ = split
        subset = train.subset(range(8))
        crowd_labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        fitted_model.retrain(subset, crowd_labels, np.random.default_rng(1))

    def test_retrain_label_mismatch_raises(self, fitted_model, split):
        train, _ = split
        subset = train.subset(range(4))
        with pytest.raises(ValueError):
            fitted_model.retrain(subset, np.array([0, 1]), np.random.default_rng(1))


class TestUnfittedBehaviour:
    @pytest.mark.parametrize("name", ["VGG16", "BoVW", "DDM"])
    def test_predict_before_fit_raises(self, name, split):
        _, test = split
        model = create_model(name, **TINY[name])
        with pytest.raises(RuntimeError):
            model.predict_proba(test)


class TestVGG:
    def test_bad_image_size_raises(self):
        with pytest.raises(ValueError):
            VGGModel(image_size=30)

    def test_fine_tune_lr_reduced_after_fit(self, split):
        train, _ = split
        model = VGGModel(**TINY["VGG16"])
        model.fit(train, np.random.default_rng(2))
        assert model._trainer.optimizer.lr == pytest.approx(model.lr * 0.25)


class TestBoVW:
    def test_feature_cache_reused(self, split):
        train, test = split
        model = BoVWModel(**TINY["BoVW"])
        model.fit(train, np.random.default_rng(3))
        model.predict(test)
        cached = len(model.feature_store)
        model.predict(test)  # second pass: no new encodes
        assert len(model.feature_store) == cached

    def test_intensity_features_lengthen_vector(self, split):
        train, _ = split
        with_intensity = BoVWModel(**TINY["BoVW"], include_intensity=True)
        without = BoVWModel(**TINY["BoVW"], include_intensity=False)
        with_intensity.fit(train, np.random.default_rng(4))
        without.fit(train, np.random.default_rng(4))
        a = with_intensity._features(train.subset([0])).shape[1]
        b = without._features(train.subset([0])).shape[1]
        assert a == b + 8


class TestDDM:
    def test_heatmaps_shape(self, split):
        train, test = split
        model = DDMModel(**TINY["DDM"])
        model.fit(train, np.random.default_rng(5))
        maps = model.heatmaps(test.subset(range(3)))
        assert maps.shape[0] == 3
        assert maps.min() >= 0.0 and maps.max() <= 1.0 + 1e-9

    def test_bad_image_size_raises(self):
        with pytest.raises(ValueError):
            DDMModel(image_size=30)


class TestRegistry:
    def test_default_committee(self):
        assert default_committee_names() == ("VGG16", "BoVW", "DDM")

    def test_available_contains_defaults(self):
        for name in default_committee_names():
            assert name in available_models()

    def test_create_unknown_raises(self):
        with pytest.raises(KeyError):
            create_model("nope")

    def test_register_custom(self):
        class Custom(DDAModel):
            name = "custom"

            def fit(self, dataset, rng):
                return self

            def predict_proba(self, dataset):
                return np.full((len(dataset), 3), 1 / 3)

            def retrain(self, dataset, labels, rng):
                return self

        register_model("custom-test", Custom)
        model = create_model("custom-test")
        assert isinstance(model, Custom)

    def test_register_empty_name_raises(self):
        with pytest.raises(ValueError):
            register_model("", VGGModel)


class TestModelVersioning:
    """Versions drive cache invalidation: they must move on every update."""

    def test_next_model_version_monotonic(self):
        from repro.models.base import next_model_version

        a = next_model_version()
        b = next_model_version()
        assert b > a
        # A minimum (e.g. a rolled-back snapshot's version) is always
        # exceeded, so restored models can never collide with candidates.
        assert next_model_version(minimum=b + 100) > b + 100

    def test_fit_and_retrain_bump_version(self, fitted_model, split):
        train, _ = split
        after_fit = fitted_model.model_version
        assert after_fit > 0
        labels = train.labels()[:10]
        fitted_model.retrain(
            train.subset(range(10)), labels, np.random.default_rng(31)
        )
        assert fitted_model.model_version > after_fit

    def test_bovw_feature_version_frozen_by_retrain(self, split):
        """retrain() keeps the codebook, so feature encodings stay valid."""
        train, _ = split
        model = BoVWModel(**TINY["BoVW"])
        model.fit(train, np.random.default_rng(41))
        feature_version = model.feature_version
        model.retrain(
            train.subset(range(8)),
            train.labels()[:8],
            np.random.default_rng(42),
        )
        assert model.feature_version == feature_version
        model.fit(train, np.random.default_rng(43))
        assert model.feature_version > feature_version

    def test_feature_cache_size_validated(self):
        with pytest.raises(ValueError):
            BoVWModel(**TINY["BoVW"], feature_cache_size=0)


class TestRetrainDeterminism:
    """retrain() must be a function of (weights, data, the passed rng).

    Historically the experts discarded the passed generator and drew from
    their trainers' internal streams, so two identically-fitted models
    could diverge after retraining depending on how far each stream had
    advanced.  Cloned models retrained with equal seeds must now match bit
    for bit, and the passed rng must actually steer the fine-tuning.
    """

    def _clones(self, fitted_model, n=3):
        import pickle

        blob = pickle.dumps(fitted_model)
        return [pickle.loads(blob) for _ in range(n)]

    def test_equal_seeds_give_bitwise_equal_experts(self, fitted_model, split):
        train, test = split
        # More samples than one minibatch, so shuffle order has teeth.
        subset = train.subset(range(40))
        labels = train.labels()[:40]
        a, b, c = self._clones(fitted_model)
        a.retrain(subset, labels, np.random.default_rng(77))
        b.retrain(subset, labels, np.random.default_rng(77))
        c.retrain(subset, labels, np.random.default_rng(78))
        pa, pb, pc = (m.predict_proba(test) for m in (a, b, c))
        np.testing.assert_array_equal(pa, pb)
        # ...and not vacuously: a different seed shuffles minibatches (and
        # dropout) differently, so the fine-tuned experts genuinely move.
        assert not np.array_equal(pa, pc)


class TestDDMHeadSchedule:
    def _spy_head_fit(self, model):
        calls = []
        original = model._head_trainer.fit

        def spy(x, y, epochs, **kwargs):
            calls.append(epochs)
            return original(x, y, epochs=epochs, **kwargs)

        model._head_trainer.fit = spy
        return calls

    def _fitted_ddm(self, split, **kwargs):
        train, _ = split
        model = DDMModel(**{**TINY["DDM"], **kwargs})
        model.fit(train, np.random.default_rng(51))
        return model, train

    def test_explicit_head_retrain_epochs_used(self, split):
        model, train = self._fitted_ddm(split, head_retrain_epochs=7)
        calls = self._spy_head_fit(model)
        model.retrain(
            train.subset(range(6)), train.labels()[:6], np.random.default_rng(1)
        )
        assert calls == [7]

    def test_default_head_schedule_tracks_backbone(self, split):
        model, train = self._fitted_ddm(split)
        calls = self._spy_head_fit(model)
        subset, labels = train.subset(range(6)), train.labels()[:6]
        model.retrain(subset, labels, np.random.default_rng(1))
        assert calls == [max(model.retrain_epochs * 2, 2)]
        # The warm-start epochs override flows into the head schedule too.
        model.retrain(subset, labels, np.random.default_rng(2), epochs=3)
        assert calls[-1] == 6

    def test_invalid_head_retrain_epochs_raises(self):
        with pytest.raises(ValueError):
            DDMModel(head_retrain_epochs=0)
