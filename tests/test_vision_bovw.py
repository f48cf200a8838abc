"""Tests for repro.vision.bovw."""

import numpy as np
import pytest

from repro.vision.bovw import BoVWEncoder
from repro.vision.histograms import grayscale_histogram, grayscale_histogram_batch
from repro.vision.kmeans import KMeans
from repro.vision.patches import dense_patches, describe_patches


@pytest.fixture(scope="module")
def fitted_encoder():
    rng = np.random.default_rng(3)
    images = rng.random((10, 32, 32, 3))
    encoder = BoVWEncoder(vocabulary_size=8, include_global=False)
    encoder.fit(images, rng)
    return encoder


class TestBoVWEncoder:
    def test_fit_marks_fitted(self, fitted_encoder):
        assert fitted_encoder.is_fitted

    def test_unfitted_encode_raises(self, rng):
        encoder = BoVWEncoder(vocabulary_size=4)
        with pytest.raises(RuntimeError):
            encoder.encode(rng.random((32, 32, 3)))

    def test_encode_is_normalized_histogram(self, fitted_encoder, rng):
        features = fitted_encoder.encode(rng.random((32, 32, 3)))
        assert features.shape == (8,)
        assert features.sum() == pytest.approx(1.0)
        assert np.all(features >= 0)

    def test_encode_batch_stacks(self, fitted_encoder, rng):
        batch = fitted_encoder.encode_batch(rng.random((3, 32, 32, 3)))
        assert batch.shape == (3, 8)

    def test_feature_dim_property(self, fitted_encoder):
        assert fitted_encoder.feature_dim == 8

    def test_feature_dim_none_before_fit(self):
        assert BoVWEncoder(vocabulary_size=4).feature_dim is None

    def test_global_features_appended(self, rng):
        images = rng.random((8, 32, 32, 3))
        encoder = BoVWEncoder(vocabulary_size=4, include_global=True)
        encoder.fit(images, rng)
        features = encoder.encode(images[0])
        assert features.shape[0] == encoder.feature_dim
        assert features.shape[0] > 4

    def test_deterministic_encoding(self, fitted_encoder, rng):
        image = rng.random((32, 32, 3))
        np.testing.assert_array_equal(
            fitted_encoder.encode(image), fitted_encoder.encode(image)
        )

    def test_invalid_vocabulary_raises(self):
        with pytest.raises(ValueError):
            BoVWEncoder(vocabulary_size=0)

    def test_vocabulary_larger_than_patches_raises(self, rng):
        # One 32x32 image yields 49 patches < 64 words.
        encoder = BoVWEncoder(vocabulary_size=64)
        with pytest.raises(ValueError):
            encoder.fit(rng.random((1, 32, 32, 3)), rng)

    def test_different_textures_encode_differently(self, fitted_encoder, rng):
        smooth = np.full((32, 32, 3), 0.5)
        noisy = rng.random((32, 32, 3))
        assert not np.allclose(
            fitted_encoder.encode(smooth), fitted_encoder.encode(noisy)
        )


class TestEncodeBatchParity:
    """encode_batch must reproduce per-image encode() bit-for-bit."""

    def test_matches_per_image_encode(self, fitted_encoder, rng):
        images = rng.random((6, 32, 32, 3))
        batched = fitted_encoder.encode_batch(images)
        expected = np.stack([fitted_encoder.encode(i) for i in images])
        np.testing.assert_array_equal(batched, expected)

    def test_with_global_features(self, rng):
        images = rng.random((8, 32, 32, 3))
        encoder = BoVWEncoder(vocabulary_size=8, include_global=True)
        encoder.fit(images, np.random.default_rng(11))
        batched = encoder.encode_batch(images[:4])
        expected = np.stack([encoder.encode(i) for i in images[:4]])
        np.testing.assert_array_equal(batched, expected)

    def test_empty_batch(self, fitted_encoder):
        encoded = fitted_encoder.encode_batch(np.empty((0, 32, 32, 3)))
        assert encoded.shape[0] == 0


class TestCodebookParity:
    def test_centres_match_per_image_patch_descriptors(self, fast_world_images):
        """The batched codebook path learns byte-identical k-means centres."""
        images = fast_world_images[:40]
        encoder = BoVWEncoder(vocabulary_size=16, max_patches_for_fit=1500)
        encoder.fit(images, np.random.default_rng(5))
        descriptors = np.concatenate(
            [describe_patches(dense_patches(img)) for img in images]
        )
        rng = np.random.default_rng(5)
        descriptors = descriptors[rng.choice(len(descriptors), 1500, replace=False)]
        expected = KMeans(n_clusters=16).fit(descriptors, rng)
        assert encoder._kmeans.centers.tobytes() == expected.centers.tobytes()


def assert_rows_match_per_image(images, n_bins=8, value_range=(0.0, 1.0)):
    batch = grayscale_histogram_batch(images, n_bins=n_bins, value_range=value_range)
    assert batch.shape == (len(images), n_bins)
    for row, image in zip(batch, images):
        expected = grayscale_histogram(image, n_bins=n_bins, value_range=value_range)
        assert row.tobytes() == expected.tobytes()


class TestIntensityHistogramBatch:
    """Batched 8-bin intensity histograms equal per-image ``np.histogram`` ones."""

    def test_matches_per_image_on_the_fast_world(self, fast_world_images):
        assert_rows_match_per_image(fast_world_images)

    def test_matches_per_image_on_bin_edge_images(self, bin_edge_images):
        assert_rows_match_per_image(bin_edge_images)

    def test_out_of_range_and_nan_values_are_dropped(self, bin_edge_images):
        images = bin_edge_images[:4].copy()
        images[0, 0, 0] = [-0.0, -1e-300, np.nan]
        images[1, 1, :5] = [1.0 + 1e-12, -1.0, 7.0]
        images[2] = 5.0  # nothing in range: the uniform histogram
        assert_rows_match_per_image(images)

    def test_other_bins_and_ranges(self, bin_edge_images, rng):
        images = np.concatenate([bin_edge_images[:3], rng.random((3, 32, 32, 3))])
        for n_bins, value_range in [(16, (0.0, 1.0)), (5, (0.2, 0.7)), (3, (0.5, 0.5))]:
            assert_rows_match_per_image(images, n_bins, value_range)

    def test_empty_batch(self):
        assert grayscale_histogram_batch(np.empty((0, 8, 8, 3)), n_bins=8).shape == (0, 8)
