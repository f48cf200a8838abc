"""The two memos a deployment keeps, and the counters they report.

A sensing cycle's committee votes on images it has never seen, so
:meth:`~repro.core.committee.Committee.expert_votes` computes every vote
directly.  Two kinds of work do repeat, and each has its own memo:

- **guard holdout scores** —
  :meth:`~repro.core.guards.ModelGuard.holdout_accuracy` scores an expert
  on a fixed golden slice up to three times a cycle (quarantine,
  incumbent, candidate), and all but the candidate call see unchanged
  parameters.  The guard remembers each expert's score per expert object
  and ``model_version``; its lookups are the ``prediction_*`` counters.
- **BoVW features** — per-image encodings keyed ``(codebook version,
  image id)`` in a :class:`BoundedCache`.  Each
  :class:`~repro.models.bovw_model.BoVWModel` owns one; the serving layer
  hands its one shared store to every event's BoVW expert, so events that
  see the same images encode them once.  Its lookups are the
  ``feature_*`` counters.

Neither memo crosses a process: a pickled memo starts empty, counters
included (a resumed process restarts the version counter, so a kept entry
could alias a new parameter state).  A deep copy stays in the process, so
a copied feature store keeps its entries (a cloned committee need not
re-encode the images its base encoded at fit) with fresh counters; the
guard's score memo starts empty when copied.  :class:`MemoCounters`
sums both kinds of counters for ``system.cache``/``service.cache`` and
the ``cache_*`` telemetry counters.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Hashable, Iterable

__all__ = ["CacheStats", "BoundedCache", "MemoCounters", "feature_stores"]


@dataclass
class CacheStats:
    """Counters of one memo's activity."""

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

    Copies keep, pickles drop.  ``copy.deepcopy`` copies the entries (their
    recency order too) with zeroed counters: the copy lives in the same
    process, where keys cannot alias, and it is a store of its own, so
    what the copy encodes later never reaches the original.  Pickling
    keeps the capacity but **drops the entries and counters**: cached
    arrays are pure derived state, and carrying them into another process
    (where the version counter restarts) could alias keys.
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

    def update(self, other: "BoundedCache") -> None:
        """``put`` every entry of ``other``, least recent first.

        ``other`` is not touched: its entries, recency and counters stay as
        they were, and the two stores share the (read-only) values.
        """
        for key, value in other._data.items():
            self.put(key, value)

    def __deepcopy__(self, memo: dict[int, Any]) -> "BoundedCache":
        copied = BoundedCache(self.capacity)
        memo[id(self)] = copied
        copied._data = copy.deepcopy(self._data, memo)
        return copied

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_data"] = OrderedDict()  # entries never cross processes
        state["stats"] = CacheStats()
        return state


def feature_stores(experts: Iterable[Any]) -> list[BoundedCache]:
    """The distinct feature stores ``experts`` keep (BoVW's), in order."""
    stores: dict[int, BoundedCache] = {}
    for expert in experts:
        store = getattr(expert, "feature_store", None)
        if store is not None:
            stores.setdefault(id(store), store)
    return list(stores.values())


class MemoCounters:
    """Read-only sums over guard score memos and feature stores.

    ``stats()`` returns ``prediction_<counter>`` (the guards' holdout-score
    memos) and ``feature_<counter>`` (the feature stores) for every
    :class:`CacheStats` counter.  The view holds no entries of its own.
    """

    def __init__(
        self, scores: Iterable[CacheStats], features: Iterable[BoundedCache]
    ) -> None:
        self.scores = list(scores)
        self.features = list(features)

    def stats(self) -> dict[str, int]:
        """Flat counter mapping across both memos (telemetry-friendly)."""
        out: dict[str, int] = {}
        for prefix, parts in (
            ("prediction", self.scores),
            ("feature", [store.stats for store in self.features]),
        ):
            for f in fields(CacheStats):
                out[f"{prefix}_{f.name}"] = sum(getattr(p, f.name) for p in parts)
        return out
