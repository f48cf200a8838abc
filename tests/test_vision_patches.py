"""Tests for repro.vision.patches."""

import numpy as np
import pytest

from repro.vision.hog import gradient_magnitude_orientation
from repro.vision.patches import (
    dense_patches,
    describe_image_batch,
    describe_image_patches,
    describe_patches,
)


def scalar_descriptor(patch, n_bins=8):
    """Reference: one patch's descriptor, computed on its own.

    An orientation histogram (magnitude weighted, L2-normalized) followed by
    the patch's mean and standard deviation of intensity; the batched
    :func:`describe_patches` must reproduce it bit for bit.
    """
    magnitude, orientation = gradient_magnitude_orientation(patch)
    bin_idx = np.clip(
        (orientation / np.pi * n_bins).astype(np.int64), 0, n_bins - 1
    )
    hist = np.bincount(
        bin_idx.ravel(), weights=magnitude.ravel(), minlength=n_bins
    )
    hist = hist / (np.sqrt((hist**2).sum()) + 1e-8)
    gray = patch if patch.ndim == 2 else patch.mean(axis=2)
    return np.concatenate([hist, [gray.mean(), gray.std()]])


def describe_one(patch, n_bins=8):
    """:func:`describe_patches` on a batch of one patch."""
    return describe_patches(np.asarray(patch)[None], n_bins=n_bins)[0]


class TestDensePatches:
    def test_count_and_shape(self, rng):
        patches = dense_patches(rng.random((32, 32)), patch_size=8, stride=4)
        # (32-8)/4+1 = 7 positions per axis.
        assert patches.shape == (49, 8, 8)

    def test_rgb_patches_keep_channels(self, rng):
        patches = dense_patches(rng.random((16, 16, 3)), patch_size=8, stride=8)
        assert patches.shape == (4, 8, 8, 3)

    def test_patch_content_matches_source(self, rng):
        image = rng.random((16, 16))
        patches = dense_patches(image, patch_size=8, stride=8)
        np.testing.assert_array_equal(patches[0], image[:8, :8])
        np.testing.assert_array_equal(patches[3], image[8:, 8:])

    def test_image_smaller_than_patch_raises(self):
        with pytest.raises(ValueError):
            dense_patches(np.zeros((4, 4)), patch_size=8)

    def test_invalid_stride_raises(self):
        with pytest.raises(ValueError):
            dense_patches(np.zeros((16, 16)), patch_size=8, stride=0)


class TestPatchDescriptor:
    def test_length(self, rng):
        desc = describe_one(rng.random((8, 8)), n_bins=8)
        assert desc.shape == (10,)

    def test_histogram_part_normalized(self, rng):
        desc = describe_one(rng.random((8, 8)), n_bins=8)
        assert np.linalg.norm(desc[:8]) <= 1.0 + 1e-6

    def test_flat_patch_zero_histogram(self):
        desc = describe_one(np.full((8, 8), 0.3), n_bins=8)
        np.testing.assert_allclose(desc[:8], 0.0, atol=1e-6)
        assert desc[8] == pytest.approx(0.3)  # mean intensity retained
        assert desc[9] == pytest.approx(0.0)  # zero std

    def test_distinguishes_edge_orientations(self):
        vertical = np.zeros((8, 8))
        vertical[:, 4:] = 1.0
        horizontal = np.zeros((8, 8))
        horizontal[4:, :] = 1.0
        dv = describe_one(vertical)
        dh = describe_one(horizontal)
        assert not np.allclose(dv[:8], dh[:8])

    def test_invalid_bins_raise(self):
        with pytest.raises(ValueError):
            describe_patches(np.zeros((1, 8, 8)), n_bins=0)


class TestDescribeImagePatches:
    def test_shape(self, rng):
        descs = describe_image_patches(
            rng.random((32, 32, 3)), patch_size=8, stride=4, n_bins=8
        )
        assert descs.shape == (49, 10)

    def test_deterministic(self, rng):
        image = rng.random((16, 16))
        a = describe_image_patches(image)
        b = describe_image_patches(image)
        np.testing.assert_array_equal(a, b)


class TestDescribePatchesParity:
    """The batched descriptor must reproduce the per-patch one exactly."""

    def test_matches_scalar_descriptor_gray(self, rng):
        patches = dense_patches(rng.random((32, 32)), patch_size=8, stride=4)
        batched = describe_patches(patches)
        expected = np.stack([scalar_descriptor(p) for p in patches])
        np.testing.assert_array_equal(batched, expected)

    def test_matches_scalar_descriptor_rgb(self, rng):
        patches = dense_patches(
            rng.random((24, 24, 3)), patch_size=8, stride=8
        )
        batched = describe_patches(patches, n_bins=6)
        expected = np.stack([scalar_descriptor(p, n_bins=6) for p in patches])
        np.testing.assert_array_equal(batched, expected)

    def test_describe_image_patches_unchanged(self, rng):
        """The public per-image API is the batched path under the hood."""
        image = rng.random((32, 32, 3))
        descriptors = describe_image_patches(image, patch_size=8, stride=4)
        patches = dense_patches(image, patch_size=8, stride=4)
        expected = np.stack([scalar_descriptor(p) for p in patches])
        np.testing.assert_array_equal(descriptors, expected)


def assert_rows_match_patch_path(images, patch_size=8, stride=4, n_bins=8):
    """Image-plane descriptors equal ``describe_patches(dense_patches(img))``."""
    batch = describe_image_batch(
        images, patch_size=patch_size, stride=stride, n_bins=n_bins
    )
    assert batch.shape[0] == len(images)
    for row, image in zip(batch, images):
        expected = describe_patches(
            dense_patches(image, patch_size=patch_size, stride=stride),
            n_bins=n_bins,
        )
        assert row.shape == expected.shape
        assert row.tobytes() == expected.tobytes()


class TestDescribeImageBatch:
    """The image-plane path must reproduce the RGB patch path byte for byte."""

    def test_matches_patch_path_on_the_fast_world(self, fast_world_images):
        assert_rows_match_patch_path(fast_world_images)

    def test_matches_patch_path_on_bin_edge_images(self, bin_edge_images):
        assert_rows_match_patch_path(bin_edge_images)

    def test_matches_patch_path_on_other_grids(self, rng):
        assert_rows_match_patch_path(
            rng.random((3, 24, 20, 3)), patch_size=6, stride=3, n_bins=6
        )
        assert_rows_match_patch_path(rng.random((3, 24, 20)), stride=5)

    def test_describe_image_patches_is_one_batch_row(self, rng):
        images = rng.random((4, 32, 32, 3))
        batch = describe_image_batch(images)
        for row, image in zip(batch, images):
            assert describe_image_patches(image).tobytes() == row.tobytes()

    def test_empty_batch(self):
        assert describe_image_batch(np.empty((0, 32, 32, 3))).shape == (0, 49, 10)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            describe_image_batch(np.zeros((1, 4, 4, 3)), patch_size=8)
        with pytest.raises(ValueError):
            describe_image_batch(np.zeros((1, 16, 16, 3)), stride=0)
        with pytest.raises(ValueError):
            describe_image_batch(np.zeros((1, 16, 16, 3)), n_bins=0)
        with pytest.raises(ValueError):
            describe_image_batch(np.zeros((16, 16)))
