"""One bounded-cache primitive for every memo in the process.

Placement, statement digests, compiled op tables, the predictor pool,
the result cache and the rest all answer repeats of a pure function
from a bounded, keyed store.  :class:`BoundedCache` is that store: a
named, thread-safe LRU that counts its hits, misses and evictions.
Every instance registers (weakly) in a process registry, so
:func:`cache_stats` can report each cache by name without the owning
module exporting anything -- the service publishes the result as
``repro_memo_*{cache=...}`` on ``/metrics``.

Stdlib only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

__all__ = ["BoundedCache", "CacheStats", "cache_stats"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


_registry: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()
_registry_lock = threading.Lock()


class BoundedCache(Generic[K, V]):
    """A named, thread-safe LRU holding at most ``maxsize`` entries.

    Values must not be ``None``: :meth:`get` and :meth:`peek` return
    ``None`` for a miss.  Counters are plain attributes, updated under
    the cache's lock; :meth:`clear` zeroes them along with the entries.
    """

    def __init__(self, name: str, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache {name!r}: maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        with _registry_lock:
            _registry.add(self)

    def get(self, key: K) -> V | None:
        """The value for ``key``; counts a hit or miss, refreshes recency."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: K) -> V | None:
        """Like :meth:`get`, but counts nothing."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> tuple[K, V] | None:
        """Store ``key`` as most recent; returns the evicted pair, if any.

        Overwriting a resident key refreshes it and never evicts.
        """
        with self._lock:
            data = self._data
            if key in data:
                data[key] = value
                data.move_to_end(key)
                return None
            data[key] = value
            if len(data) <= self.maxsize:
                return None
            self.evictions += 1
            return data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def items(self) -> list[tuple[K, V]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._data.items())

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self.hits, self.misses, self.evictions)

    def snapshot(self) -> dict[str, int]:
        """Counters plus resident entries, read under one lock."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._data)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data


def cache_stats() -> dict[str, dict[str, int]]:
    """:meth:`BoundedCache.snapshot` of every live cache, summed by name.

    Instance caches (one result cache per engine, one trace buffer per
    engine, ...) share a name; a collected instance drops out.
    """
    with _registry_lock:
        caches = list(_registry)
    totals: dict[str, dict[str, int]] = {}
    for cache in caches:
        snap = cache.snapshot()
        total = totals.get(cache.name)
        if total is None:
            totals[cache.name] = snap
        else:
            for field, value in snap.items():
                total[field] += value
    return dict(sorted(totals.items()))
