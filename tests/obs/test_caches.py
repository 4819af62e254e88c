"""BoundedCache: LRU order, counters, the process registry, threads."""

import gc
import random
import sys
import threading

import pytest

from repro.obs import BoundedCache, CacheStats, cache_stats


def test_lru_order():
    cache = BoundedCache("test-lru", 2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh "a": "b" is now LRU
    cache.put("c", 3)
    assert "a" in cache and "c" in cache and "b" not in cache
    assert [key for key, _ in cache.items()] == ["a", "c"]
    assert cache.stats == CacheStats(hits=1, misses=0, evictions=1)


def test_overwrite_never_evicts():
    cache = BoundedCache("test-overwrite", 2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.put("a", 10) is None
    assert len(cache) == 2 and cache.evictions == 0
    # The overwrite refreshed "a", so "b" is the next victim.
    assert cache.put("c", 3) == ("b", 2)
    assert cache.peek("a") == 10


def test_peek_counts_nothing_but_refreshes():
    cache = BoundedCache("test-peek", 2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.peek("missing") is None
    assert cache.hits == 0 and cache.misses == 0
    cache.put("c", 3)
    assert "a" in cache and "b" not in cache


def test_put_returns_the_victim():
    cache = BoundedCache("test-victim", 1)
    assert cache.put("a", 1) is None
    assert cache.put("b", 2) == ("a", 1)
    assert cache.snapshot() == {"hits": 0, "misses": 0, "evictions": 1,
                                "entries": 1}


def test_clear_zeroes_the_counters():
    cache = BoundedCache("test-clear", 1)
    cache.get("a")
    cache.put("a", 1)
    cache.get("a")
    cache.put("b", 2)
    cache.clear()
    assert len(cache) == 0
    assert cache.snapshot() == {"hits": 0, "misses": 0, "evictions": 0,
                                "entries": 0}


@pytest.mark.parametrize("maxsize", [0, -1])
def test_maxsize_below_one_raises(maxsize):
    with pytest.raises(ValueError):
        BoundedCache("test-size", maxsize)


def test_registry_sums_live_caches_and_forgets_collected_ones():
    name = "test-registry"
    first = BoundedCache(name, 4)
    second = BoundedCache(name, 4)
    first.put("a", 1)
    second.put("b", 2)
    first.get("a")
    second.get("missing")
    assert cache_stats()[name] == {"hits": 1, "misses": 1, "evictions": 0,
                                   "entries": 2}
    del second
    gc.collect()
    assert cache_stats()[name] == {"hits": 1, "misses": 0, "evictions": 0,
                                   "entries": 1}
    del first
    gc.collect()
    assert name not in cache_stats()


def test_concurrent_get_put_loses_no_count():
    cache = BoundedCache("test-threads", 4)
    threads_n, rounds = 8, 2000
    errors: list[Exception] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(rounds):
                key = rng.randrange(16)
                if cache.get(key) is None:
                    cache.put(key, key)
        except Exception as exc:   # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.hits + cache.misses == threads_n * rounds
    assert len(cache) == len(cache.items()) <= 4
