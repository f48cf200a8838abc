"""Tests for repro.vision.gradcam."""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.vision.gradcam import GradCAM


@pytest.fixture
def cnn(rng):
    return Sequential(
        [
            Conv2D(3, 4, kernel=3, rng=rng, pad=1),
            ReLU(),
            MaxPool2D(2),
            Conv2D(4, 6, kernel=3, rng=rng, pad=1),
            ReLU(),
            Flatten(),
            Dense(6 * 8 * 8, 3, rng),
        ]
    )


class TestGradCAM:
    def test_default_targets_last_conv(self, cnn):
        cam = GradCAM(cnn)
        assert cam.target_layer == 3

    def test_heatmap_shape_matches_target_layer(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((2, 3, 16, 16))
        maps = cam.heatmaps(x, np.array([0, 1]))
        assert maps.shape == (2, 8, 8)  # after the 2x pool

    def test_heatmaps_in_unit_range(self, cnn, rng):
        cam = GradCAM(cnn)
        maps = cam.heatmaps(rng.random((3, 3, 16, 16)), np.array([0, 1, 2]))
        assert maps.min() >= 0.0
        assert maps.max() <= 1.0 + 1e-9

    def test_heatmap_mass_bounds(self, cnn, rng):
        cam = GradCAM(cnn)
        mass = cam.heatmap_mass(rng.random((2, 3, 16, 16)), np.array([0, 0]))
        assert mass.shape == (2,)
        assert np.all((0.0 <= mass) & (mass <= 1.0))

    def test_explicit_target_layer(self, cnn, rng):
        cam = GradCAM(cnn, target_layer=0)
        maps = cam.heatmaps(rng.random((1, 3, 16, 16)), np.array([0]))
        assert maps.shape == (1, 16, 16)

    def test_no_conv_model_raises(self, rng):
        mlp = Sequential([Dense(4, 3, rng)])
        with pytest.raises(ValueError):
            GradCAM(mlp)

    def test_out_of_range_target_raises(self, cnn):
        with pytest.raises(ValueError):
            GradCAM(cnn, target_layer=99)

    def test_class_idx_length_mismatch_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmaps(rng.random((2, 3, 16, 16)), np.array([0]))

    def test_class_idx_out_of_range_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmaps(rng.random((1, 3, 16, 16)), np.array([7]))

    def test_batchnorm_past_target_raises(self, rng):
        model = Sequential(
            [
                Conv2D(3, 4, kernel=3, rng=rng, pad=1),
                ReLU(),
                BatchNorm(4),
                Conv2D(4, 2, kernel=3, rng=rng, pad=1),
                Flatten(),
                BatchNorm(2 * 4 * 4),
                Dense(2 * 4 * 4, 3, rng),
            ]
        )
        with pytest.raises(ValueError, match="BatchNorm at layer 5"):
            GradCAM(model)
        # Up to the target BatchNorm runs in inference mode: allowed, and
        # scoring leaves its running statistics alone.
        del model.layers[5]
        norm = model.layers[2]
        norm.running_mean += 0.5
        mean = norm.running_mean.copy()
        x = rng.random((2, 3, 4, 4))
        _, logits = GradCAM(model).heatmap_masses(x, [np.array([0, 1])])
        np.testing.assert_array_equal(logits, model.forward(x, training=False))
        np.testing.assert_array_equal(norm.running_mean, mean)

    def test_different_classes_give_different_maps(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((1, 3, 16, 16))
        a = cam.heatmaps(x, np.array([0]))
        b = cam.heatmaps(x, np.array([1]))
        assert not np.allclose(a, b)


class TestHeatmapMasses:
    """The batched single-forward path must match per-call heatmap_mass."""

    def test_matches_sequential_heatmap_mass(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((3, 3, 16, 16))
        rows = [np.array([0, 1, 2]), np.array([1, 1, 0])]
        masses, logits = cam.heatmap_masses(x, rows)
        assert len(masses) == 2
        for row, mass in zip(rows, masses):
            np.testing.assert_array_equal(mass, cam.heatmap_mass(x, row))

    def test_logits_match_inference_forward(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((2, 3, 16, 16))
        _, logits = cam.heatmap_masses(x, [np.array([0, 1])])
        np.testing.assert_array_equal(logits, cnn.forward(x, training=False))

    def test_no_caches_up_to_the_target(self, rng):
        model = Sequential(
            [
                Conv2D(3, 4, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Conv2D(4, 6, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(6 * 4 * 4, 3, rng),
            ]
        )
        x = rng.random((2, 3, 16, 16))
        model.forward(x, training=True)  # fill every cache first
        GradCAM(model).heatmap_masses(x, [np.array([0, 1])])
        assert model.layers[2]._mask is None
        assert model.layers[5]._mask is not None  # past the target: backward reads it

    def test_row_length_mismatch_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmap_masses(rng.random((2, 3, 16, 16)), [np.array([0])])

    def test_row_class_out_of_range_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmap_masses(
                rng.random((1, 3, 16, 16)), [np.array([0]), np.array([7])]
            )
