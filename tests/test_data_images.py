"""Tests for repro.data.images — the synthetic scene renderer."""

import hashlib

import numpy as np
import pytest

from repro.data import images
from repro.data.dataset import build_dataset
from repro.data.images import IMAGE_SIZE, render_scene
from repro.data.metadata import DamageLabel, SceneType


def edge_energy(image):
    """Mean absolute finite-difference — a texture/damage proxy."""
    gray = image.mean(axis=2)
    gx = np.abs(np.diff(gray, axis=1)).mean()
    gy = np.abs(np.diff(gray, axis=0)).mean()
    return gx + gy


class TestRenderScene:
    def test_shape_and_range(self, rng):
        image = render_scene(DamageLabel.SEVERE, SceneType.ROAD, rng)
        assert image.shape == (IMAGE_SIZE, IMAGE_SIZE, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_custom_size(self, rng):
        image = render_scene(DamageLabel.NO_DAMAGE, SceneType.ROAD, rng, size=16)
        assert image.shape == (16, 16, 3)

    def test_too_small_size_raises(self, rng):
        with pytest.raises(ValueError):
            render_scene(DamageLabel.NO_DAMAGE, SceneType.ROAD, rng, size=4)

    def test_severity_increases_texture(self, rng):
        """The class signal the AI experts learn: texture grows with damage."""
        energies = {}
        for label in DamageLabel:
            energies[label] = np.mean(
                [
                    edge_energy(render_scene(label, SceneType.BUILDING, rng))
                    for _ in range(25)
                ]
            )
        assert (
            energies[DamageLabel.NO_DAMAGE]
            < energies[DamageLabel.MODERATE]
            < energies[DamageLabel.SEVERE]
        )

    def test_classes_overlap_at_boundary(self, rng):
        """Adjacent severities must genuinely overlap (no trivial separation)."""
        moderate = [
            edge_energy(render_scene(DamageLabel.MODERATE, SceneType.ROAD, rng))
            for _ in range(40)
        ]
        severe = [
            edge_energy(render_scene(DamageLabel.SEVERE, SceneType.ROAD, rng))
            for _ in range(40)
        ]
        assert max(moderate) > min(severe)

    def test_images_vary(self, rng):
        a = render_scene(DamageLabel.SEVERE, SceneType.ROAD, rng)
        b = render_scene(DamageLabel.SEVERE, SceneType.ROAD, rng)
        assert not np.allclose(a, b)

    def test_deterministic_given_rng_state(self):
        a = render_scene(
            DamageLabel.MODERATE, SceneType.BRIDGE, np.random.default_rng(3)
        )
        b = render_scene(
            DamageLabel.MODERATE, SceneType.BRIDGE, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a, b)

    def test_all_scene_types_render(self, rng):
        for scene in SceneType:
            image = render_scene(DamageLabel.MODERATE, scene, rng)
            assert np.isfinite(image).all()

    def test_severe_is_darker_than_intact(self, rng):
        """Dust desaturation dims severe scenes on average."""
        intact = np.mean(
            [
                render_scene(DamageLabel.NO_DAMAGE, SceneType.BUILDING, rng).mean()
                for _ in range(25)
            ]
        )
        severe = np.mean(
            [
                render_scene(DamageLabel.SEVERE, SceneType.BUILDING, rng).mean()
                for _ in range(25)
            ]
        )
        assert severe < intact


def _stepwise_cracks(canvas, rng, n_cracks, darkness):
    """``_add_cracks`` as it drew two scalar steps per pixel of the walk."""
    size = canvas.shape[0]
    for _ in range(n_cracks):
        y = int(rng.integers(size // 2, size - 1))
        x = int(rng.integers(0, size))
        length = int(rng.integers(size // 4, size))
        for _ in range(length):
            canvas[y, x, :] *= 1.0 - darkness
            y += int(rng.integers(-1, 2))
            x += int(rng.integers(-1, 2))
            y = min(max(y, size // 2), size - 1)
            x = min(max(x, 0), size - 1)


class TestCrackWalk:
    @pytest.mark.parametrize("n_images", [180, 960])  # fast and paper worlds
    def test_dataset_pixels_match_the_stepwise_walk(self, n_images, monkeypatch):
        def pixels() -> bytes:
            dataset = build_dataset(n_images, rng=np.random.default_rng(n_images))
            return np.ascontiguousarray(dataset.pixels_hwc()).tobytes()

        current = pixels()
        monkeypatch.setattr(images, "_add_cracks", _stepwise_cracks)
        assert hashlib.sha256(current).digest() == hashlib.sha256(pixels()).digest()

    def test_revisited_pixels_darken_once_per_visit(self):
        """A walk pinned in a corner revisits pixels; each visit multiplies."""
        for seed in range(20):
            canvas = np.ones((8, 8, 3))
            expected = canvas.copy()
            images._add_cracks(canvas, np.random.default_rng(seed), 3, 0.3)
            _stepwise_cracks(expected, np.random.default_rng(seed), 3, 0.3)
            assert canvas.tobytes() == expected.tobytes()
