"""Synthetic disaster-image rendering.

Images are 32x32 RGB arrays in [0, 1] whose *low-level statistics* separate
the three damage classes the way real disaster photos do:

- **no damage** — smooth sky gradient over intact structures: low edge
  density, bright and regular.
- **moderate damage** — the same scene with a few cracks and debris patches:
  medium edge density.
- **severe damage** — rubble: high-frequency texture, collapsed (tilted)
  structure edges, dust desaturation.

A renderer draws the scene for an *apparent* label; the failure-archetype
injectors in :mod:`repro.data.archetypes` exploit the gap between apparent
and true labels.  Pixel-only classifiers can learn this distribution well but
are structurally blind to the metadata, which is exactly the regime
CrowdLearn targets.
"""

from __future__ import annotations

import numpy as np

from repro.data.metadata import DamageLabel, SceneType

__all__ = ["IMAGE_SIZE", "render_scene"]

#: Side length of every synthetic image.
IMAGE_SIZE = 32


def _sky_gradient(rng: np.random.Generator, size: int) -> np.ndarray:
    """A bright vertical gradient with slight color jitter (the sky)."""
    top = np.array([0.55, 0.70, 0.90]) + rng.normal(0, 0.03, 3)
    bottom = np.array([0.75, 0.80, 0.88]) + rng.normal(0, 0.03, 3)
    ramp = np.linspace(0.0, 1.0, size)[:, None, None]
    column = (1 - ramp) * top[None, None, :] + ramp * bottom[None, None, :]
    return np.broadcast_to(column, (size, size, 3))


def _structure_color(rng: np.random.Generator, scene: SceneType) -> np.ndarray:
    base = {
        SceneType.ROAD: np.array([0.45, 0.45, 0.47]),
        SceneType.BUILDING: np.array([0.65, 0.60, 0.52]),
        SceneType.BRIDGE: np.array([0.55, 0.52, 0.50]),
        SceneType.VEHICLE: np.array([0.50, 0.20, 0.20]),
        SceneType.PEOPLE: np.array([0.60, 0.50, 0.42]),
    }[scene]
    return np.clip(base + rng.normal(0, 0.04, 3), 0.0, 1.0)


def _draw_intact_structure(
    canvas: np.ndarray, rng: np.random.Generator, scene: SceneType
) -> None:
    """Rectangular structure blocks with clean horizontal/vertical edges."""
    size = canvas.shape[0]
    horizon = size // 2 + int(rng.integers(-3, 4))
    color = _structure_color(rng, scene)
    canvas[horizon:, :, :] = color[None, None, :]
    # A few vertical facade lines / lane markings: regular, low-frequency.
    n_lines = int(rng.integers(2, 5))
    for _ in range(n_lines):
        x = int(rng.integers(2, size - 2))
        shade = np.clip(color * rng.uniform(0.75, 1.2), 0, 1)
        canvas[horizon:, x : x + 1, :] = shade[None, None, :]


def _add_cracks(
    canvas: np.ndarray, rng: np.random.Generator, n_cracks: int, darkness: float
) -> None:
    """Dark jagged polylines (cracks) over the lower half."""
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


def _add_rubble(
    canvas: np.ndarray, rng: np.random.Generator, intensity: float
) -> None:
    """High-frequency gray rubble texture over the lower half + dust haze."""
    size = canvas.shape[0]
    lower = canvas[size // 2 :, :, :]
    noise = rng.normal(0.0, intensity, lower.shape[:2])
    lower += noise[:, :, None] * np.array([1.0, 0.95, 0.9])[None, None, :]
    # Dark debris blocks with random tilts (collapsed structure).
    n_blocks = int(3 + 6 * intensity * 10)
    for _ in range(n_blocks):
        by = int(rng.integers(size // 2, size - 3))
        bx = int(rng.integers(0, size - 3))
        bh = int(rng.integers(2, 5))
        bw = int(rng.integers(2, 6))
        shade = rng.uniform(0.15, 0.45)
        canvas[by : by + bh, bx : bx + bw, :] = shade
    # Dust desaturates and dims the whole frame slightly.
    gray = canvas.mean(axis=2, keepdims=True)
    canvas[...] = 0.75 * canvas + 0.25 * gray
    np.clip(canvas, 0.0, 1.0, out=canvas)


def render_scene(
    apparent_label: DamageLabel,
    scene: SceneType,
    rng: np.random.Generator,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    """Render a scene whose pixels express ``apparent_label``.

    Returns an ``(size, size, 3)`` float array in [0, 1].
    """
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    canvas = _sky_gradient(rng, size).copy()
    _draw_intact_structure(canvas, rng, scene)
    # Damage parameters overlap between adjacent severities so the classes
    # are genuinely ambiguous at the boundary, as real photos are.
    if apparent_label is DamageLabel.MODERATE:
        _add_cracks(
            canvas,
            rng,
            n_cracks=int(rng.integers(2, 7)),
            darkness=float(rng.uniform(0.40, 0.60)),
        )
        _add_rubble(canvas, rng, intensity=float(rng.uniform(0.03, 0.09)))
    elif apparent_label is DamageLabel.SEVERE:
        _add_cracks(
            canvas,
            rng,
            n_cracks=int(rng.integers(4, 10)),
            darkness=float(rng.uniform(0.55, 0.75)),
        )
        _add_rubble(canvas, rng, intensity=float(rng.uniform(0.07, 0.17)))
    # Global lighting jitter and sensor noise on every image.
    canvas *= rng.uniform(0.85, 1.15)
    canvas += rng.normal(0.0, 0.02, canvas.shape)
    np.clip(canvas, 0.0, 1.0, out=canvas)
    return canvas
