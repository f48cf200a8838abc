"""What a fitted world keeps alive: forward caches and the build's peak.

Training forwards cache im2col patches, masks and inputs for backward.
Nothing reads them once a fit or a Grad-CAM pass is over, so no layer may
still hold one after ``prepare``, after ``Trainer.fit`` or after an
expert's ``retrain``.  The memory gate bounds the ``tracemalloc`` peak of
building the fast world, which those stale caches used to raise.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from repro.core.guards import DivergenceSentinel, use_divergence_sentinel
from repro.eval.runner import prepare
from repro.nn.layers import (
    _FORWARD_CACHES,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer

#: Ceiling on the traced peak of ``prepare(0, fast=True)``: 42.8 MB measured
#: with forward caches released at the end of every fit (62.6 MB while they
#: lived on), plus a 5 MB margin for allocator-independent temporaries that
#: other numpy versions may size differently.
PREPARE_PEAK_CEILING_MB = 48.0


def reachable_layers(root: object) -> list[Layer]:
    """Every :class:`Layer` reachable from ``root`` through repro objects."""
    layers: list[Layer] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, np.ndarray):
            continue
        seen.add(id(obj))
        if isinstance(obj, Layer):
            layers.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return layers


def cached_layers(root: object) -> list[str]:
    """``"Class.attr"`` for every forward cache still held under ``root``."""
    return [
        f"{type(layer).__name__}.{key}"
        for layer in reachable_layers(root)
        for key in _FORWARD_CACHES
        if getattr(layer, key, None) is not None
    ]


@pytest.fixture(scope="module")
def traced_world():
    """``prepare(0, fast=True)`` under tracemalloc: (setup, peak in MB)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        setup = prepare(seed=0, fast=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return setup, peak / 1e6


def small_cnn(rng: np.random.Generator) -> Sequential:
    return Sequential(
        [
            Conv2D(3, 4, kernel=3, rng=rng, pad=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 8, rng=rng),
            ReLU(),
            Dropout(0.2, rng=rng),
            Dense(8, 3, rng=rng),
        ]
    )


class TestForwardCacheLifetime:
    def test_walker_finds_every_expert_network(self, traced_world):
        setup, _ = traced_world
        # VGG16 (13 layers), BoVW's head (3), DDM's backbone (11) and head (1).
        assert len(reachable_layers(setup.base_committee)) == 28

    def test_no_caches_after_prepare(self, traced_world):
        setup, _ = traced_world
        assert cached_layers(setup.base_committee) == []

    @pytest.mark.parametrize("guarded", [False, True])
    def test_no_caches_after_trainer_fit(self, rng, guarded):
        model = small_cnn(rng)
        trainer = Trainer(
            model,
            SoftmaxCrossEntropy(),
            Adam(model.params(), model.grads(), lr=1e-2),
            rng=rng,
            batch_size=4,
        )
        x = rng.random((10, 3, 8, 8))
        y = rng.integers(0, 3, size=10)
        with use_divergence_sentinel(DivergenceSentinel() if guarded else None):
            history = trainer.fit(x, y, epochs=2)
        assert history.epochs == 2
        assert cached_layers(model) == []

    def test_no_caches_after_each_expert_retrain(self, traced_world):
        setup, _ = traced_world
        committee = copy.deepcopy(setup.base_committee)
        batch = setup.test_set.subset(np.arange(10))
        for i, expert in enumerate(committee.experts):
            expert.retrain(batch, batch.labels(), np.random.default_rng(i))
            assert cached_layers(expert) == [], expert.name


class TestMemoryGate:
    def test_prepare_peak_below_ceiling(self, traced_world):
        _, peak_mb = traced_world
        assert peak_mb < PREPARE_PEAK_CEILING_MB, (
            f"prepare(0, fast=True) traced peak {peak_mb:.1f} MB exceeds "
            f"{PREPARE_PEAK_CEILING_MB} MB"
        )
