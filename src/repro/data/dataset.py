"""Dataset construction: the synthetic Ecuador-earthquake stand-in.

The paper uses 960 labeled social-media images (560 train / 400 test) with
balanced class labels.  :func:`build_dataset` reproduces that structure
synthetically, injecting a configurable fraction of failure-archetype images
while keeping the three damage classes balanced overall.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.data.archetypes import ARCHETYPE_MAKERS
from repro.data.images import IMAGE_SIZE
from repro.data.metadata import DamageLabel, FailureArchetype, ImageMetadata
from repro.utils.validation import check_in_range

__all__ = ["DisasterImage", "DisasterDataset", "build_dataset", "train_test_split"]


@dataclass(frozen=True)
class DisasterImage:
    """One image: the pixels (AI's view) plus the metadata (the human story)."""

    pixels: np.ndarray
    metadata: ImageMetadata

    @property
    def image_id(self) -> int:
        return self.metadata.image_id

    @property
    def true_label(self) -> DamageLabel:
        return self.metadata.true_label


@dataclass
class DisasterDataset:
    """An ordered collection of :class:`DisasterImage`."""

    images: list[DisasterImage] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> DisasterImage:
        return self.images[index]

    def __iter__(self):
        return iter(self.images)

    def subset(self, indices: np.ndarray | list[int]) -> "DisasterDataset":
        """A new dataset containing the images at ``indices`` (in order)."""
        return DisasterDataset([self.images[int(i)] for i in indices])

    def pixels_nchw(self) -> np.ndarray:
        """All pixels as an ``(n, 3, H, W)`` batch for the CNN experts."""
        if not self.images:
            raise ValueError("dataset is empty")
        stacked = np.stack([img.pixels for img in self.images])
        return stacked.transpose(0, 3, 1, 2)

    def pixels_hwc(self) -> np.ndarray:
        """All pixels as an ``(n, H, W, 3)`` batch for feature extractors."""
        if not self.images:
            raise ValueError("dataset is empty")
        return np.stack([img.pixels for img in self.images])

    def labels(self) -> np.ndarray:
        """Ground-truth labels as an int array."""
        return np.array([int(img.true_label) for img in self.images], dtype=np.int64)

    def metadata(self) -> list[ImageMetadata]:
        """Metadata of every image, in order."""
        return [img.metadata for img in self.images]

    def class_counts(self) -> dict[DamageLabel, int]:
        """Images per ground-truth class."""
        counts = Counter(img.true_label for img in self.images)
        return {label: counts.get(label, 0) for label in DamageLabel}

    def archetype_counts(self) -> dict[FailureArchetype, int]:
        """Images per failure archetype."""
        counts = Counter(img.metadata.archetype for img in self.images)
        return {a: counts.get(a, 0) for a in FailureArchetype}


#: How the archetype budget is split among the deceptive/hard cases.
_ARCHETYPE_MIX = (
    (FailureArchetype.FAKE, 0.3),
    (FailureArchetype.CLOSEUP, 0.2),
    (FailureArchetype.LOW_RESOLUTION, 0.25),
    (FailureArchetype.IMPLICIT, 0.25),
)


def build_dataset(
    n_images: int = 960,
    archetype_fraction: float = 0.18,
    rng: np.random.Generator | None = None,
    size: int = IMAGE_SIZE,
) -> DisasterDataset:
    """Build a class-balanced synthetic dataset with failure archetypes.

    Parameters
    ----------
    n_images:
        Total images (paper: 960).
    archetype_fraction:
        Fraction of images drawn from the four failure archetypes; the rest
        are honest renders.  The class balance is restored by choosing the
        honest images' labels to offset the archetypes' skew.
    rng:
        Randomness source; a fresh default generator when omitted.
    """
    if n_images < DamageLabel.count():
        raise ValueError(f"need at least {DamageLabel.count()} images")
    check_in_range(archetype_fraction, 0, 0.5, "archetype_fraction")
    if rng is None:
        rng = np.random.default_rng()

    n_archetype = int(round(n_images * archetype_fraction))
    per_class_target = n_images // DamageLabel.count()
    images: list[DisasterImage] = []
    next_id = 0

    # 1. Archetype images.
    for archetype, share in _ARCHETYPE_MIX:
        count = int(round(n_archetype * share))
        maker = ARCHETYPE_MAKERS[archetype]
        for _ in range(count):
            if archetype is FailureArchetype.LOW_RESOLUTION:
                label = DamageLabel(int(rng.integers(DamageLabel.count())))
            else:
                label = DamageLabel.NO_DAMAGE  # ignored by deceptive makers
            pixels, meta = maker(next_id, label, rng, size=size)
            images.append(DisasterImage(pixels, meta))
            next_id += 1

    # 2. Honest images chosen to restore class balance.
    counts = Counter(img.true_label for img in images)
    remaining = n_images - len(images)
    deficits = {
        label: max(per_class_target - counts.get(label, 0), 0)
        for label in DamageLabel
    }
    total_deficit = sum(deficits.values())
    plan: list[DamageLabel] = []
    for label in DamageLabel:
        if total_deficit > 0:
            quota = int(round(remaining * deficits[label] / total_deficit))
        else:
            quota = remaining // DamageLabel.count()
        plan.extend([label] * quota)
    # Round-off: top up with cycling labels until the plan is full.
    cycle = 0
    while len(plan) < remaining:
        plan.append(DamageLabel(cycle % DamageLabel.count()))
        cycle += 1
    plan = plan[:remaining]
    maker = ARCHETYPE_MAKERS[FailureArchetype.NONE]
    for label in plan:
        pixels, meta = maker(next_id, label, rng, size=size)
        images.append(DisasterImage(pixels, meta))
        next_id += 1

    order = rng.permutation(len(images))
    return DisasterDataset([images[int(i)] for i in order])


def train_test_split(
    dataset: DisasterDataset,
    n_train: int = 560,
    rng: np.random.Generator | None = None,
) -> tuple[DisasterDataset, DisasterDataset]:
    """Stratified train/test split preserving class proportions.

    The paper uses 560 training and 400 test images out of 960.
    """
    n = len(dataset)
    if not 0 < n_train < n:
        raise ValueError(f"n_train must be in (0, {n}), got {n_train}")
    if rng is None:
        rng = np.random.default_rng()
    labels = dataset.labels()
    train_idx: list[int] = []
    test_idx: list[int] = []
    train_fraction = n_train / n
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        members = rng.permutation(members)
        cut = int(round(train_fraction * len(members)))
        train_idx.extend(members[:cut].tolist())
        test_idx.extend(members[cut:].tolist())
    # Stratified rounding can drift by a couple of samples; rebalance exactly.
    while len(train_idx) > n_train:
        test_idx.append(train_idx.pop())
    while len(train_idx) < n_train:
        train_idx.append(test_idx.pop())
    return dataset.subset(rng.permutation(train_idx)), dataset.subset(
        rng.permutation(test_idx)
    )
