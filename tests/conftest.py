"""Shared fixtures for the test suite.

Expensive artifacts (datasets, trained models, the fast experiment setup)
are session-scoped; tests must not mutate them.  Tests that need mutation
build their own tiny instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.delay import DelayModel
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.data.dataset import DisasterDataset, build_dataset, train_test_split
from repro.utils.rng import SeedSequencer

from tests.golden import RECORDER


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset() -> DisasterDataset:
    """A 90-image dataset with archetypes (shared, read-only)."""
    return build_dataset(n_images=90, rng=np.random.default_rng(7))


@pytest.fixture(scope="session")
def small_split(small_dataset) -> tuple[DisasterDataset, DisasterDataset]:
    """(train, test) split of the shared small dataset."""
    return train_test_split(small_dataset, n_train=60, rng=np.random.default_rng(8))


@pytest.fixture(scope="session")
def fast_world_images() -> np.ndarray:
    """Pixels of every image ``prepare(0, fast=True)`` builds, (180, H, W, 3).

    Rebuilt the way ``prepare`` builds its dataset, without fitting the
    committee.
    """
    dataset = build_dataset(n_images=180, rng=SeedSequencer(0).get("dataset"))
    return dataset.pixels_hwc()


@pytest.fixture(scope="session")
def bin_edge_images() -> np.ndarray:
    """Random RGB images made of the 8-bin edges 0, 0.125, ..., 1.0.

    Every value sits on a bin edge, half of them nudged one ulp to either
    side, so each edge rule of the intensity histogram is exercised.
    """
    gen = np.random.default_rng(2024)
    edges = gen.choice(np.linspace(0.0, 1.0, 9), size=(12, 32, 32, 3))
    nudge = gen.choice([-np.inf, 0.0, np.inf], size=edges.shape, p=[0.25, 0.5, 0.25])
    return np.clip(np.nextafter(edges, edges + nudge), 0.0, 1.0)


@pytest.fixture(scope="session")
def population() -> WorkerPopulation:
    """A 40-worker population (shared, read-only)."""
    return WorkerPopulation(n_workers=40, rng=np.random.default_rng(9))


@pytest.fixture
def platform(population, rng) -> CrowdsourcingPlatform:
    """A fresh platform per test over the shared population."""
    return CrowdsourcingPlatform(
        population=population,
        delay_model=DelayModel(),
        quality_model=QualityModel(),
        rng=rng,
        workers_per_query=5,
    )


@pytest.fixture
def golden(request):
    """``golden(key, actual)`` checks a value against ``tests/golden``.

    The family is the test module's ``GOLDEN`` (a
    :class:`tests.golden.Family`).  Under ``python -m tests.golden`` the
    value is recorded instead of compared.
    """
    family = request.module.GOLDEN
    recorder = request.config.stash.get(RECORDER, None)

    def check(key: str, actual) -> None:
        family.check(key, actual, recorder)

    return check
