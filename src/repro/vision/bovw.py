"""Bag-of-visual-words encoder.

Learns a codebook of patch descriptors with k-means and encodes each image as
a normalized histogram of visual-word occurrences, optionally concatenated
with global HOG and color-histogram features.  This is the handcrafted
feature stack of the paper's BoVW baseline [51].
"""

from __future__ import annotations

import numpy as np

from repro.vision.histograms import color_histogram
from repro.vision.hog import hog_descriptor_batch
from repro.vision.kmeans import KMeans
from repro.vision.patches import describe_image_batch

__all__ = ["BoVWEncoder"]


class BoVWEncoder:
    """Fit a visual-word codebook, then encode images to feature vectors.

    Parameters
    ----------
    vocabulary_size:
        Number of visual words (k-means clusters).
    patch_size, stride:
        Dense-sampling grid for patch descriptors.
    include_global:
        When True (default), append global HOG and per-channel color
        histograms to the visual-word histogram.
    """

    def __init__(
        self,
        vocabulary_size: int = 32,
        patch_size: int = 8,
        stride: int = 4,
        include_global: bool = True,
        max_patches_for_fit: int = 20000,
    ) -> None:
        if vocabulary_size <= 0:
            raise ValueError("vocabulary_size must be positive")
        self.vocabulary_size = vocabulary_size
        self.patch_size = patch_size
        self.stride = stride
        self.include_global = include_global
        self.max_patches_for_fit = max_patches_for_fit
        self._kmeans: KMeans | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether a codebook has been learned."""
        return self._kmeans is not None

    def fit(self, images: np.ndarray, rng: np.random.Generator) -> "BoVWEncoder":
        """Learn the visual-word codebook from ``images`` (N, H, W[, C])."""
        descriptors = describe_image_batch(images, self.patch_size, self.stride)
        all_descriptors = descriptors.reshape(-1, descriptors.shape[2])
        if all_descriptors.shape[0] > self.max_patches_for_fit:
            idx = rng.choice(
                all_descriptors.shape[0], self.max_patches_for_fit, replace=False
            )
            all_descriptors = all_descriptors[idx]
        if all_descriptors.shape[0] < self.vocabulary_size:
            raise ValueError(
                f"need at least {self.vocabulary_size} patch descriptors, "
                f"got {all_descriptors.shape[0]}"
            )
        self._kmeans = KMeans(n_clusters=self.vocabulary_size).fit(
            all_descriptors, rng
        )
        return self

    def encode(self, image: np.ndarray) -> np.ndarray:
        """Encode one image into its BoVW (+ global) feature vector."""
        return self.encode_batch(np.asarray(image)[None])[0]

    def encode_batch(self, images: np.ndarray) -> np.ndarray:
        """Encode a batch of same-shape images, shape ``(n, feature_dim)``.

        Patch descriptors for the whole batch are computed in one
        vectorized pass from the images' luma and channel-mean planes (the
        hot path); visual-word assignment stays per image so the k-means
        matmul sees the same operand shapes whatever the batch size,
        keeping every row bit-identical to encoding that image alone.
        """
        if self._kmeans is None:
            raise RuntimeError("BoVWEncoder.encode_batch called before fit")
        images = np.asarray(images, dtype=np.float64)
        n = images.shape[0]
        if n == 0:
            dim = self.feature_dim
            return np.empty((0, dim if dim is not None else 0))
        per_image = describe_image_batch(images, self.patch_size, self.stride)
        hists = np.empty((n, self.vocabulary_size))
        for i in range(n):
            words = self._kmeans.predict(per_image[i])
            hist = np.bincount(words, minlength=self.vocabulary_size).astype(
                np.float64
            )
            hists[i] = hist / max(hist.sum(), 1.0)
        if not self.include_global:
            return hists
        hogs = hog_descriptor_batch(images, cell_size=8, n_bins=9, block_size=2)
        colors = np.stack([color_histogram(img, n_bins=8) for img in images])
        return np.concatenate([hists, hogs, colors], axis=1)

    @property
    def feature_dim(self) -> int | None:
        """Dimensionality of encoded vectors (None before fit)."""
        if self._kmeans is None:
            return None
        if not self.include_global:
            return self.vocabulary_size
        # HOG on 32x32 with 8px cells, 2-cell blocks: 9 blocks * 4 cells * 9 bins.
        return self.vocabulary_size + 9 * 4 * 9 + 3 * 8
