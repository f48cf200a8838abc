"""Dense patch sampling and patch descriptors for the BoVW codebook.

SIFT proper needs scale-space keypoint detection; at 32x32 the standard
substitute (also common in the BoVW literature) is densely sampled patches
described by small orientation histograms — the same gradient statistics
SIFT aggregates, minus the detector.

Descriptors are computed by :func:`describe_patches` in one vectorized pass
over a whole patch batch.  :func:`describe_image_batch` gives the same rows
for whole images without building the RGB patches: it computes each image's
luma and channel-mean planes once and slides the patch window over those.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.vision.hog import _to_gray_batch, batch_gradient_magnitude_orientation

__all__ = [
    "dense_patches",
    "describe_patches",
    "describe_image_batch",
    "describe_image_patches",
]


def dense_patches(
    image: np.ndarray, patch_size: int = 8, stride: int = 4
) -> np.ndarray:
    """Extract all ``patch_size`` square patches on a ``stride`` grid.

    Returns an array of shape ``(n_patches, patch_size, patch_size[, C])``,
    patches in row-major (y, x) grid order.
    """
    if patch_size <= 0 or stride <= 0:
        raise ValueError("patch_size and stride must be positive")
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape[:2]
    if h < patch_size or w < patch_size:
        raise ValueError(
            f"image {h}x{w} smaller than patch_size {patch_size}"
        )
    # A sliding-window view over the stride grid replaces the per-patch
    # Python loop; the final reshape copies into the same contiguous
    # (n_patches, ...) layout np.stack produced.
    windows = sliding_window_view(image, (patch_size, patch_size), axis=(0, 1))
    grid = windows[::stride, ::stride]
    if image.ndim == 3:
        # (ny, nx, C, ps, ps) -> (ny, nx, ps, ps, C)
        grid = np.moveaxis(grid, 2, -1)
    return grid.reshape(-1, *grid.shape[2:])


def describe_patches(patches: np.ndarray, n_bins: int = 8) -> np.ndarray:
    """Describe an (N, ps, ps[, C]) patch batch, shape ``(N, n_bins + 2)``.

    Each row concatenates an ``n_bins`` gradient-orientation histogram
    (magnitude weighted, L2-normalized) with the patch's mean and standard
    deviation of intensity.  One vectorized pass: batched gradients, a
    single offset ``bincount`` for every patch's orientation histogram (the
    scatter never crosses patch boundaries, so each histogram accumulates
    its pixels in raster order), and axis-wise intensity moments.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim not in (3, 4):
        raise ValueError(
            f"expected (N, ps, ps) or (N, ps, ps, C) patches, got {patches.shape}"
        )
    if patches.shape[0] == 0:
        return np.empty((0, n_bins + 2))
    gray = patches if patches.ndim == 3 else patches.mean(axis=3)
    return _describe(
        batch_gradient_magnitude_orientation(patches), gray, n_bins
    )


def _describe(
    gradients: tuple[np.ndarray, np.ndarray], gray: np.ndarray, n_bins: int
) -> np.ndarray:
    """Descriptor rows from per-patch gradients and (N, ps, ps) gray patches."""
    magnitude, orientation = gradients
    n = gray.shape[0]
    bin_idx = np.clip(
        (orientation / np.pi * n_bins).astype(np.int64), 0, n_bins - 1
    )
    offsets = np.arange(n, dtype=np.int64)[:, None, None] * n_bins
    hist = np.bincount(
        (bin_idx + offsets).ravel(),
        weights=magnitude.ravel(),
        minlength=n * n_bins,
    ).reshape(n, n_bins)
    norms = np.sqrt((hist**2).sum(axis=1)) + 1e-8
    hist = hist / norms[:, None]
    means = gray.mean(axis=(1, 2))
    stds = gray.std(axis=(1, 2))
    return np.concatenate([hist, means[:, None], stds[:, None]], axis=1)


def describe_image_batch(
    images: np.ndarray,
    patch_size: int = 8,
    stride: int = 4,
    n_bins: int = 8,
) -> np.ndarray:
    """Dense patch descriptors for (N, H, W[, 3]) images, ``(N, n_patches, n_bins + 2)``.

    Row for row equal to ``describe_patches(dense_patches(image))``.  A
    patch's luma and channel mean are per-pixel values, so each image's
    luma and channel-mean planes are computed once (the same elementwise
    operations the patch path applies to every patch pixel) and the patch
    grid is cut from those planes.  The cut copies each window into a
    contiguous (ps, ps) block, so gradients and moments reduce in the same
    order as on the patch batch.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if patch_size <= 0 or stride <= 0:
        raise ValueError("patch_size and stride must be positive")
    images = np.asarray(images, dtype=np.float64)
    if images.ndim not in (3, 4):
        raise ValueError(
            f"expected (N, H, W) or (N, H, W, C) images, got {images.shape}"
        )
    n, h, w = images.shape[:3]
    if h < patch_size or w < patch_size:
        raise ValueError(
            f"image {h}x{w} smaller than patch_size {patch_size}"
        )
    n_patches = ((h - patch_size) // stride + 1) * ((w - patch_size) // stride + 1)
    if n == 0:
        return np.empty((0, n_patches, n_bins + 2))
    luma = _to_gray_batch(images)
    gray = images if images.ndim == 3 else images.mean(axis=3)

    def windows(plane: np.ndarray) -> np.ndarray:
        view = sliding_window_view(plane, (patch_size, patch_size), axis=(1, 2))
        return view[:, ::stride, ::stride].reshape(-1, patch_size, patch_size)

    gradients = batch_gradient_magnitude_orientation(windows(luma))
    return _describe(gradients, windows(gray), n_bins).reshape(n, n_patches, -1)


def describe_image_patches(
    image: np.ndarray,
    patch_size: int = 8,
    stride: int = 4,
    n_bins: int = 8,
) -> np.ndarray:
    """Dense patch descriptors for an image, shape ``(n_patches, n_bins + 2)``."""
    return describe_image_batch(
        np.asarray(image)[None], patch_size=patch_size, stride=stride, n_bins=n_bins
    )[0]
