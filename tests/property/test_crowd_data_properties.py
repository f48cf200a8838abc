"""Property-based tests: crowd platform and dataset invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.delay import INCENTIVE_LEVELS, DelayModel
from repro.crowd.quality import QualityModel
from repro.data.dataset import build_dataset
from repro.data.images import IMAGE_SIZE, render_scene
from repro.data.metadata import DamageLabel, SceneType
from repro.utils.clock import TemporalContext


class TestDelayModelProperties:
    @settings(max_examples=40)
    @given(
        st.sampled_from(list(TemporalContext)),
        st.floats(0.5, 50.0),
    )
    def test_mean_delay_positive_and_bounded(self, context, incentive):
        model = DelayModel()
        delay = model.mean_delay(context, incentive)
        assert 0 < delay < 3600

    @settings(max_examples=20)
    @given(st.sampled_from(list(TemporalContext)), st.integers(0, 10_000))
    def test_more_money_never_slower_in_expectation(self, context, seed):
        """Mean delay is non-increasing in the incentive, up to plateau noise.

        The calibrated evening/midnight tables wobble by up to ~1% across
        the incentive plateau (Figure 5's flat region), so the monotonicity
        only holds to that tolerance — not exactly.
        """
        model = DelayModel()
        rng = np.random.default_rng(seed)
        a, b = sorted(rng.uniform(1.0, 20.0, size=2))
        assert model.mean_delay(context, b) <= model.mean_delay(context, a) * 1.01

    @settings(max_examples=30)
    @given(
        st.sampled_from(list(TemporalContext)),
        st.sampled_from(INCENTIVE_LEVELS),
        st.integers(0, 10_000),
    )
    def test_samples_positive(self, context, incentive, seed):
        model = DelayModel()
        rng = np.random.default_rng(seed)
        assert model.sample(context, incentive, rng) > 0


class TestQualityModelProperties:
    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.5, 50.0))
    def test_effective_accuracy_bounded(self, reliability, incentive):
        model = QualityModel()
        accuracy = model.effective_accuracy(reliability, incentive)
        assert 0.05 <= accuracy <= 0.98

    @settings(max_examples=30)
    @given(st.floats(0.0, 1.0))
    def test_accuracy_monotone_in_incentive(self, reliability):
        model = QualityModel()
        values = [
            model.effective_accuracy(reliability, level)
            for level in INCENTIVE_LEVELS
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestDatasetProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(12, 60))
    def test_build_dataset_invariants(self, seed, n_images):
        dataset = build_dataset(
            n_images=n_images, rng=np.random.default_rng(seed)
        )
        assert len(dataset) == n_images
        ids = [img.image_id for img in dataset]
        assert len(set(ids)) == n_images
        for image in dataset:
            assert image.pixels.shape == (32, 32, 3)
            assert 0.0 <= image.pixels.min() and image.pixels.max() <= 1.0
            # Deceptive flag consistent with apparent/true label mismatch.
            meta = image.metadata
            if meta.is_deceptive:
                assert meta.apparent_label != meta.true_label

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(list(DamageLabel)),
        st.sampled_from(list(SceneType)),
    )
    def test_render_scene_always_exportable(self, seed, label, scene):
        image = render_scene(label, scene, np.random.default_rng(seed))
        assert image.shape == (IMAGE_SIZE, IMAGE_SIZE, 3)
        assert np.isfinite(image).all()
        assert image.min() >= 0.0 and image.max() <= 1.0
