"""Color-histogram features for the handcrafted-feature (BoVW) pipeline."""

from __future__ import annotations

import numpy as np

__all__ = [
    "color_histogram",
    "grayscale_histogram",
    "grayscale_histogram_batch",
    "joint_color_histogram",
]


def _validate_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (H, W, C) image, got {image.shape}")
    return image


def grayscale_histogram(
    image: np.ndarray, n_bins: int = 16, value_range: tuple[float, float] = (0.0, 1.0)
) -> np.ndarray:
    """Normalized intensity histogram of a grayscale (or flattened) image."""
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    image = _validate_image(image)
    hist, _ = np.histogram(image.ravel(), bins=n_bins, range=value_range)
    total = hist.sum()
    if total == 0:
        return np.full(n_bins, 1.0 / n_bins)
    return hist / total


def grayscale_histogram_batch(
    images: np.ndarray,
    n_bins: int = 16,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """:func:`grayscale_histogram` of every image in a batch, ``(N, n_bins)``.

    One vectorized pass over the flattened images that follows
    ``np.histogram``'s equal-bin rules: values outside ``value_range`` (and
    NaN) are dropped, a value's bin is its scaled offset, corrected by one
    where it falls across a bin edge, and the last bin holds the right
    edge.  Each row equals the per-image histogram bit for bit.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    values = images.reshape(n, int(np.prod(images.shape[1:])))
    edges = np.histogram_bin_edges(np.empty(0), bins=n_bins, range=value_range)
    first, last = edges[0], edges[-1]
    keep = (values >= first) & (values <= last)
    values = np.where(keep, values, first)
    idx = (((values - first) / (last - first)) * n_bins).astype(np.intp)
    idx[idx == n_bins] -= 1
    idx[values < edges[idx]] -= 1
    idx[(values >= edges[idx + 1]) & (idx != n_bins - 1)] += 1
    idx[~keep] = n_bins  # a dropped value's bin, cut off below
    offsets = np.arange(n, dtype=np.intp)[:, None] * (n_bins + 1)
    hist = np.bincount(
        (idx + offsets).ravel(), minlength=n * (n_bins + 1)
    ).reshape(n, n_bins + 1)[:, :n_bins]
    totals = hist.sum(axis=1, keepdims=True)
    return np.where(
        totals == 0, 1.0 / n_bins, hist / np.where(totals == 0, 1, totals)
    )


def color_histogram(
    image: np.ndarray,
    n_bins: int = 8,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Per-channel normalized histograms concatenated into one vector.

    For a 3-channel image with ``n_bins`` bins this yields ``3 * n_bins``
    features.
    """
    image = _validate_image(image)
    if image.ndim == 2:
        return grayscale_histogram(image, n_bins, value_range)
    channels = [
        grayscale_histogram(image[:, :, c], n_bins, value_range)
        for c in range(image.shape[2])
    ]
    return np.concatenate(channels)


def joint_color_histogram(
    image: np.ndarray,
    bins_per_channel: int = 4,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Joint RGB histogram, capturing color co-occurrence.

    Produces ``bins_per_channel ** 3`` features; coarse bins keep the
    dimensionality manageable.
    """
    image = _validate_image(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"joint histogram needs an (H, W, 3) image, got {image.shape}")
    if bins_per_channel <= 0:
        raise ValueError(f"bins_per_channel must be positive, got {bins_per_channel}")
    low, high = value_range
    scaled = (image - low) / max(high - low, 1e-12)
    idx = np.clip((scaled * bins_per_channel).astype(np.int64), 0, bins_per_channel - 1)
    flat = (
        idx[:, :, 0] * bins_per_channel**2
        + idx[:, :, 1] * bins_per_channel
        + idx[:, :, 2]
    ).ravel()
    hist = np.bincount(flat, minlength=bins_per_channel**3).astype(np.float64)
    return hist / hist.sum()
