"""Shared, retrain-aware prediction/feature cache.

Every sensing cycle used to recompute each expert's votes at every call
site that needed them — QSS entropy, MIC reweighting, the guard's holdout
scoring, final labels — and :class:`~repro.models.bovw_model.BoVWModel`
kept its own *unbounded* per-image feature memo on top.  This module
replaces both with one bounded, version-aware cache shared by the
committee, the guard and the models:

- **predictions** are memoized per ``(expert name, model version, pool)``,
  where the pool key is the tuple of image ids in dataset order.  Caching
  whole pools (rather than stitching per-image rows) keeps cached results
  *bit-identical* to a cache-free run: BLAS matmuls do not guarantee that
  a row of a batched forward pass equals the same row computed in a
  different batch, so a hit returns exactly the array that the expert
  produced for exactly that pool.
- **features** are memoized per ``(feature version, image id)`` — BoVW's
  per-image encoding is computed image-by-image, so per-image granularity
  is exact there.

Invalidation is by *versioning*, not by explicit flushes: every
``fit``/``retrain`` (and every guard rollback, which restores a snapshot
carrying its own older version) changes the expert's
:attr:`~repro.models.base.DDAModel.model_version`, so stale entries can
never be served.  Versions come from a process-wide monotonic counter
(see :func:`repro.models.base.next_model_version`), which means a
rolled-back expert that later retrains can never collide with the version
its discarded candidate used.  Stale entries are additionally dropped —
and counted as invalidations — whenever a newer version of the same
expert stores a result.

Both stores are bounded LRU maps, and both drop their entries when
pickled: a checkpoint therefore never carries cached arrays across
processes, where a fresh version counter could otherwise alias keys.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.dataset import DisasterDataset
    from repro.models.base import DDAModel

__all__ = ["CacheStats", "BoundedCache", "PredictionCache", "pool_key"]


def pool_key(dataset: "DisasterDataset") -> tuple[int, ...]:
    """The cache identity of an image pool: its image ids, in order.

    Image ids are unique per generated image and order matters (a vote
    array is positional), so two datasets share a key exactly when an
    expert at a fixed version would produce the same vote array for both.
    """
    return tuple(int(image.image_id) for image in dataset)


@dataclass
class CacheStats:
    """Counters of one bounded store's activity."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-safe mapping of counter name to value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class BoundedCache:
    """A bounded LRU mapping for memoized arrays.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry once ``capacity`` is exceeded.  Values are treated as
    *read-only* by convention — hits return the stored array itself, so a
    caller must never mutate what it gets back.

    Pickling keeps the capacity and counters but **drops the entries**:
    cached arrays are pure derived state, and carrying them into another
    process (where the version counter restarts) could alias keys.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def keys(self) -> list[Hashable]:
        """The stored keys, least recently used first (for inspection)."""
        return list(self._data)

    def get(self, key: Hashable) -> Any | None:
        """The stored value (refreshing recency), or ``None`` on a miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key -> value``, evicting the LRU entry past capacity."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key matches; returns how many dropped."""
        doomed = [key for key in self._data if predicate(key)]
        for key in doomed:
            del self._data[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        self.stats.invalidations += len(self._data)
        self._data.clear()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_data"] = OrderedDict()  # entries never cross processes
        return state


class PredictionCache:
    """The shared cache the committee, guard and models route through.

    Parameters
    ----------
    max_pools:
        Bound on memoized ``(expert, version, pool)`` vote arrays.
    max_features:
        Bound on memoized per-image feature vectors (shared by every
        expert that calls :meth:`~repro.models.base.DDAModel.attach_cache`
        with feature state — currently BoVW).
    namespace:
        Key prefix isolating this handle's prediction entries.  Expert
        names repeat across deployments (every event clones the same base
        committee) and model-version counters restart per process, so two
        events sharing one physical store would otherwise serve each
        other's vote arrays.  Use :meth:`scoped` to derive a per-event
        view over the same bounded stores.
    """

    def __init__(
        self,
        max_pools: int = 256,
        max_features: int = 8192,
        namespace: str = "",
    ) -> None:
        self.predictions = BoundedCache(max_pools)
        self.features = BoundedCache(max_features)
        self.namespace = namespace

    def scoped(self, namespace: str) -> "PredictionCache":
        """A view over the *same* bounded stores under another namespace.

        The view shares entries, bounds and statistics with its parent —
        only the key prefix differs, so deployments share capacity while
        their prediction entries can never collide.
        """
        view = object.__new__(PredictionCache)
        view.predictions = self.predictions
        view.features = self.features
        view.namespace = namespace
        return view

    def predict_proba(
        self, expert: "DDAModel", dataset: "DisasterDataset"
    ) -> np.ndarray:
        """``expert.predict_proba(dataset)``, memoized per
        (namespace, name, version, pool).

        On a miss the freshly computed array is stored and every entry of
        the same expert at *any other* version is dropped (the expert has
        moved on; those arrays can never be served again).
        """
        key = (
            self.namespace, expert.name, expert.model_version, pool_key(dataset)
        )
        cached = self.predictions.get(key)
        if cached is None:
            cached = expert.predict_proba(dataset)
            self.invalidate_expert(expert.name, keep_version=key[2])
            self.predictions.put(key, cached)
        return cached

    def invalidate_expert(
        self, name: str, keep_version: int | None = None
    ) -> int:
        """Drop an expert's cached votes, optionally sparing one version.

        Scoped to this handle's namespace: another deployment's entries
        for a same-named expert are never touched.  Called automatically
        when a newer version stores a result, and explicitly by the guard
        after a rollback so a restored snapshot never shares the store
        with its discarded candidate's arrays.
        """
        namespace = self.namespace
        return self.predictions.invalidate(
            lambda key: (
                key[0] == namespace and key[1] == name
                and key[2] != keep_version
            )
        )

    def stats(self) -> dict[str, int]:
        """Flat counter mapping across both stores (telemetry-friendly)."""
        out: dict[str, int] = {}
        for prefix, store in (
            ("prediction", self.predictions),
            ("feature", self.features),
        ):
            for name, value in store.stats.as_dict().items():
                out[f"{prefix}_{name}"] = value
        return out

    def counters(self) -> Iterable[tuple[str, int]]:
        """``stats`` as items (convenience for bridging loops)."""
        return self.stats().items()
