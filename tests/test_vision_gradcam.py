"""Tests for repro.vision.gradcam."""

import numpy as np
import pytest

from repro.nn.layers import _FORWARD_CACHES, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.vision.gradcam import GradCAM


def cached_layers(model):
    """Indices of the layers holding any forward cache."""
    return [
        i
        for i, layer in enumerate(model.layers)
        if any(getattr(layer, key, None) is not None for key in _FORWARD_CACHES)
    ]


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
        (mass,), _ = cam.heatmap_masses(
            rng.random((2, 3, 16, 16)), [np.array([0, 0])]
        )
        assert mass.shape == (2,)
        assert np.all((0.0 <= mass) & (mass <= 1.0))

    def test_no_conv_model_raises(self, rng):
        mlp = Sequential([Dense(4, 3, rng)])
        with pytest.raises(ValueError):
            GradCAM(mlp)

    def test_class_idx_length_mismatch_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmaps(rng.random((2, 3, 16, 16)), np.array([0]))

    def test_class_idx_out_of_range_raises(self, cnn, rng):
        cam = GradCAM(cnn)
        with pytest.raises(ValueError):
            cam.heatmaps(rng.random((1, 3, 16, 16)), np.array([7]))

    def test_different_classes_give_different_maps(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((1, 3, 16, 16))
        a = cam.heatmaps(x, np.array([0]))
        b = cam.heatmaps(x, np.array([1]))
        assert not np.allclose(a, b)


class TestHeatmapMasses:
    """The batched single-forward path must match per-call heatmaps."""

    def test_matches_sequential_heatmap_mass(self, cnn, rng):
        cam = GradCAM(cnn)
        x = rng.random((3, 3, 16, 16))
        rows = [np.array([0, 1, 2]), np.array([1, 1, 0])]
        masses, logits = cam.heatmap_masses(x, rows)
        assert len(masses) == 2
        for row, mass in zip(rows, masses):
            np.testing.assert_array_equal(
                mass, cam.heatmaps(x, row).mean(axis=(1, 2))
            )

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
        GradCAM(model)._forward(x)  # the instrumented pass the heatmaps run
        assert model.layers[2]._mask is None
        assert model.layers[5]._mask is not None  # past the target: backward reads it

    def test_heatmaps_release_their_caches(self, cnn, rng):
        """Once the heatmaps are computed no layer holds a forward cache."""
        cam = GradCAM(cnn)
        x = rng.random((2, 3, 16, 16))
        cam.heatmaps(x, np.array([0, 2]))
        assert cached_layers(cnn) == []
        cam.heatmap_masses(x, [np.array([0, 1]), np.array([2, 2])])
        assert cached_layers(cnn) == []
        with pytest.raises(ValueError):
            cam.heatmap_masses(x, [np.array([0, 7])])
        assert cached_layers(cnn) == []

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
