"""Histogram-of-oriented-gradients descriptor (Dalal & Triggs style).

The BoVW baseline in the paper uses handcrafted features (SIFT, HOG) to train
a neural-network classifier.  This module provides the HOG half; dense patch
descriptors for the visual-word codebook come from :mod:`repro.vision.patches`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "gradient_magnitude_orientation",
    "batch_gradient_magnitude_orientation",
    "hog_descriptor",
    "hog_descriptor_batch",
]


def _to_gray(image: np.ndarray) -> np.ndarray:
    """Collapse an (H, W) or (H, W, 3) image to grayscale float64."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] == 3:
        # ITU-R BT.601 luma weights.
        return image @ np.array([0.299, 0.587, 0.114])
    raise ValueError(f"expected (H, W) or (H, W, 3) image, got shape {image.shape}")


def _to_gray_batch(images: np.ndarray) -> np.ndarray:
    """Collapse an (N, H, W) or (N, H, W, 3) batch to grayscale float64."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        return images
    if images.ndim == 4 and images.shape[3] == 3:
        return images @ np.array([0.299, 0.587, 0.114])
    raise ValueError(
        f"expected (N, H, W) or (N, H, W, 3) batch, got shape {images.shape}"
    )


def _unsigned_orientation(gy: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """``np.arctan2(gy, gx) % np.pi``, bit for bit, without ``np.remainder``.

    ``arctan2`` returns angles in ``[-pi, pi]`` or NaN.  The remainder adds
    ``pi`` to a negative angle (``-pi`` gives ``+0.0``; a tiny negative
    rounds up to ``pi``), maps ``pi`` and both zeros to ``+0.0`` and keeps
    the rest; ``+ 0.0`` turns ``-0.0`` into ``+0.0``.
    """
    angle = np.arctan2(gy, gx)
    return np.where(
        angle < 0, angle + np.pi, np.where(angle == np.pi, 0.0, angle + 0.0)
    )


def gradient_magnitude_orientation(
    image: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel gradient magnitude and orientation (radians in [0, pi)).

    Gradients use central differences with replicated borders.
    """
    gray = _to_gray(image)
    gx = np.empty_like(gray)
    gy = np.empty_like(gray)
    gx[:, 1:-1] = (gray[:, 2:] - gray[:, :-2]) / 2.0
    gx[:, 0] = gray[:, 1] - gray[:, 0]
    gx[:, -1] = gray[:, -1] - gray[:, -2]
    gy[1:-1, :] = (gray[2:, :] - gray[:-2, :]) / 2.0
    gy[0, :] = gray[1, :] - gray[0, :]
    gy[-1, :] = gray[-1, :] - gray[-2, :]
    magnitude = np.hypot(gx, gy)
    orientation = _unsigned_orientation(gy, gx)
    return magnitude, orientation


def batch_gradient_magnitude_orientation(
    images: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gradient_magnitude_orientation` over an (N, H, W[, 3]) batch.

    Every operation is elementwise or a fixed-stencil difference, so each
    batch row is bit-identical to running the scalar function on that
    image alone.
    """
    gray = _to_gray_batch(images)
    gx = np.empty_like(gray)
    gy = np.empty_like(gray)
    gx[:, :, 1:-1] = (gray[:, :, 2:] - gray[:, :, :-2]) / 2.0
    gx[:, :, 0] = gray[:, :, 1] - gray[:, :, 0]
    gx[:, :, -1] = gray[:, :, -1] - gray[:, :, -2]
    gy[:, 1:-1, :] = (gray[:, 2:, :] - gray[:, :-2, :]) / 2.0
    gy[:, 0, :] = gray[:, 1, :] - gray[:, 0, :]
    gy[:, -1, :] = gray[:, -1, :] - gray[:, -2, :]
    magnitude = np.hypot(gx, gy)
    orientation = _unsigned_orientation(gy, gx)
    return magnitude, orientation


def hog_descriptor(
    image: np.ndarray,
    cell_size: int = 8,
    n_bins: int = 9,
    block_size: int = 2,
    eps: float = 1e-6,
) -> np.ndarray:
    """Compute a HOG feature vector for ``image``.

    Parameters
    ----------
    image:
        (H, W) or (H, W, 3) array; H and W must be multiples of ``cell_size``.
    cell_size:
        Side of the square cells the orientation histogram is pooled over.
    n_bins:
        Number of unsigned orientation bins over [0, pi).
    block_size:
        Side (in cells) of the L2-normalized blocks; blocks overlap by one
        cell in each direction, as in the original descriptor.
    """
    if cell_size <= 0 or n_bins <= 0 or block_size <= 0:
        raise ValueError("cell_size, n_bins and block_size must be positive")
    magnitude, orientation = gradient_magnitude_orientation(image)
    h, w = magnitude.shape
    if h % cell_size or w % cell_size:
        raise ValueError(
            f"image dims {h}x{w} must be multiples of cell_size={cell_size}"
        )
    cells_y, cells_x = h // cell_size, w // cell_size
    if cells_y < block_size or cells_x < block_size:
        raise ValueError("image too small for the requested block_size")

    # Soft-assign each pixel's magnitude to the two nearest orientation bins.
    bin_width = np.pi / n_bins
    position = orientation / bin_width - 0.5
    lower = np.floor(position).astype(np.int64)
    frac = position - lower
    lower_bin = lower % n_bins
    upper_bin = (lower + 1) % n_bins

    cell_hist = np.zeros((cells_y, cells_x, n_bins), dtype=np.float64)
    cy = np.repeat(np.arange(cells_y), cell_size)[:, None]
    cx = np.repeat(np.arange(cells_x), cell_size)[None, :]
    cy = np.broadcast_to(cy, (h, w))
    cx = np.broadcast_to(cx, (h, w))
    np.add.at(cell_hist, (cy, cx, lower_bin), magnitude * (1.0 - frac))
    np.add.at(cell_hist, (cy, cx, upper_bin), magnitude * frac)

    return _normalized_blocks(cell_hist[None], block_size, eps).reshape(-1)


def _normalized_blocks(
    cell_hist: np.ndarray, block_size: int, eps: float
) -> np.ndarray:
    """L2-normalized overlapping blocks of an (N, cy, cx, bins) histogram.

    Vectorizes the classical per-block loop with a sliding-window view.
    ``moveaxis`` restores the C-order ravel of the loop's
    ``cell_hist[by:by+bs, bx:bx+bs, :]`` slices, so flattened output is
    bit-identical to concatenating the loop's normalized blocks.
    Returns shape ``(N, blocks_y * blocks_x * block_size**2 * bins)``.
    """
    n, cells_y, cells_x, n_bins = cell_hist.shape
    windows = sliding_window_view(
        cell_hist, (block_size, block_size), axis=(1, 2)
    )  # (N, by, bx, bins, bs, bs)
    blocks = np.moveaxis(windows, 3, 5).reshape(
        n, cells_y - block_size + 1, cells_x - block_size + 1, -1
    )
    norms = np.sqrt((blocks**2).sum(axis=3) + eps**2)
    return (blocks / norms[..., None]).reshape(n, -1)


def hog_descriptor_batch(
    images: np.ndarray,
    cell_size: int = 8,
    n_bins: int = 9,
    block_size: int = 2,
    eps: float = 1e-6,
) -> np.ndarray:
    """:func:`hog_descriptor` over a batch of same-shape images, ``(N, D)``.

    The cell histograms accumulate with one ``np.add.at`` over the whole
    batch; since the scatter indices never cross image boundaries, each
    cell receives its pixels' contributions in exactly the order the
    scalar path adds them, keeping rows bit-identical to per-image calls.
    """
    if cell_size <= 0 or n_bins <= 0 or block_size <= 0:
        raise ValueError("cell_size, n_bins and block_size must be positive")
    magnitude, orientation = batch_gradient_magnitude_orientation(images)
    n, h, w = magnitude.shape
    if h % cell_size or w % cell_size:
        raise ValueError(
            f"image dims {h}x{w} must be multiples of cell_size={cell_size}"
        )
    cells_y, cells_x = h // cell_size, w // cell_size
    if cells_y < block_size or cells_x < block_size:
        raise ValueError("image too small for the requested block_size")

    bin_width = np.pi / n_bins
    position = orientation / bin_width - 0.5
    lower = np.floor(position).astype(np.int64)
    frac = position - lower
    lower_bin = lower % n_bins
    upper_bin = (lower + 1) % n_bins

    cell_hist = np.zeros((n, cells_y, cells_x, n_bins), dtype=np.float64)
    ii = np.broadcast_to(np.arange(n)[:, None, None], (n, h, w))
    cy = np.broadcast_to(
        np.repeat(np.arange(cells_y), cell_size)[None, :, None], (n, h, w)
    )
    cx = np.broadcast_to(
        np.repeat(np.arange(cells_x), cell_size)[None, None, :], (n, h, w)
    )
    np.add.at(cell_hist, (ii, cy, cx, lower_bin), magnitude * (1.0 - frac))
    np.add.at(cell_hist, (ii, cy, cx, upper_bin), magnitude * frac)
    return _normalized_blocks(cell_hist, block_size, eps)
