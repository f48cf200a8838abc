"""Synthetic disaster-image dataset: the Ecuador-earthquake stand-in."""

from repro.data.archetypes import (
    ARCHETYPE_MAKERS,
    make_closeup,
    make_fake,
    make_implicit,
    make_low_resolution,
    make_regular,
)
from repro.data.dataset import (
    DisasterDataset,
    DisasterImage,
    build_dataset,
    train_test_split,
)
from repro.data.images import IMAGE_SIZE, render_scene
from repro.data.metadata import (
    DamageLabel,
    FailureArchetype,
    ImageMetadata,
    SceneType,
)
from repro.data.stream import SensingCycle, SensingCycleStream

__all__ = [
    "ARCHETYPE_MAKERS",
    "make_closeup",
    "make_fake",
    "make_implicit",
    "make_low_resolution",
    "make_regular",
    "DisasterDataset",
    "DisasterImage",
    "build_dataset",
    "train_test_split",
    "IMAGE_SIZE",
    "render_scene",
    "DamageLabel",
    "FailureArchetype",
    "ImageMetadata",
    "SceneType",
    "SensingCycle",
    "SensingCycleStream",
]
