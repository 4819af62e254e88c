"""Content-addressed result cache for the prediction service.

Keys are strings built from the *canonical content digest* of the
program(s) involved (see :func:`repro.ir.program_digest`) plus every
input that changes the answer: machine name, back-end capability
flags, memory-model switch, bindings/domain/workload.  Two clients
posting differently-formatted sources of the same program therefore
share one cache entry, while any semantic variation misses.

Values are the JSON-ready response dicts produced by
:mod:`repro.service.protocol`, which makes on-disk persistence trivial:
the cache appends one JSON line per store, and a restarted server
replays the file to warm itself before taking traffic.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..obs.caches import BoundedCache, CacheStats

__all__ = ["CacheStats", "Eviction", "ResultCache", "endpoint_of"]


def endpoint_of(key: str) -> str:
    """The endpoint a cache key belongs to (keys start ``kind|...``)."""
    return key.split("|", 1)[0]


@dataclass(frozen=True)
class Eviction:
    """One LRU eviction: which entry fell out, and how old it was."""

    key: str
    endpoint: str
    age: float  # seconds since the entry was stored


def _record(key: str, value: dict[str, Any], stamp: float,
            aux: dict[str, Any] | None) -> str:
    """One JSON line of the persistence file."""
    record: dict[str, Any] = {"key": key, "value": value, "ts": stamp}
    if aux:
        record["req"] = aux
    return json.dumps(record, sort_keys=True)


class ResultCache:
    """A bounded, thread-safe LRU mapping cache keys to response dicts.

    ``maxsize`` bounds the number of resident entries (least recently
    *used* falls out first).  When ``path`` is given, every store is
    appended to that JSON-lines file and :meth:`load` replays it --
    later lines win, and only the newest ``maxsize`` entries stay
    resident, so the file may grow past the memory bound safely.
    """

    def __init__(self, maxsize: int = 1024, path: str | os.PathLike | None = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.path = os.fspath(path) if path is not None else None
        #: key -> (response, wall time stored, persisted req block or None)
        self._core: BoundedCache[
            str, tuple[dict[str, Any], float, dict[str, Any] | None]] = \
            BoundedCache("result", maxsize)
        #: Keeps the resident order and the file's line order in step.
        self._lock = threading.Lock()
        if self.path is not None:
            self.load()

    @property
    def stats(self) -> CacheStats:
        return self._core.stats

    @property
    def _aux(self) -> dict[str, dict[str, Any]]:
        """Persisted request blocks of the resident entries, by key."""
        return {key: aux for key, (_, _, aux) in self._core.items() if aux}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._core)

    def __contains__(self, key: str) -> bool:
        return key in self._core

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up ``key``; counts a hit or miss and refreshes recency."""
        entry = self._core.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: str, value: dict[str, Any],
            aux: dict[str, Any] | None = None) -> Eviction | None:
        """Store ``key``; evicts the LRU entry past ``maxsize``.

        ``aux`` is an optional request-shaped block persisted alongside
        the value (as a ``req`` field on the JSON line, and kept with
        the entry so :meth:`compact` rewrites it): offline consumers
        like ``repro surrogate train`` read it back as free labeled
        training data.  Readers that predate the field ignore it.

        Returns an :class:`Eviction` record when a resident entry fell
        out (so callers can report which endpoint lost an entry and how
        stale it was), or ``None`` when everything fit.
        """
        now = time.time()
        with self._lock:
            victim = self._core.put(key, (value, now, aux or None))
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(_record(key, value, now, aux) + "\n")
        if victim is None:
            return None
        old_key, (_, stored, _) = victim
        return Eviction(old_key, endpoint_of(old_key), max(now - stored, 0.0))

    def entry_ages(self) -> dict[str, float]:
        """Seconds since insertion for every resident entry."""
        now = time.time()
        return {key: max(now - stored, 0.0)
                for key, (_, stored, _) in self._core.items()}

    def clear(self) -> None:
        self._core.clear()

    def keys(self) -> Iterator[str]:
        return iter([key for key, _ in self._core.items()])

    # ------------------------------------------------------------------
    # persistence

    def load(self) -> int:
        """Replay the JSON-lines file; returns how many entries loaded.

        Corrupt lines (a torn final write after a crash) are skipped
        rather than fatal -- a warm start must never block serving.
        """
        if self.path is None or not os.path.exists(self.path):
            return 0
        now = time.time()
        loaded: dict[str, tuple[dict[str, Any], float,
                                dict[str, Any] | None]] = {}
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key, value = record["key"], record["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                req = record.get("req")
                # Files written before timestamps existed lack "ts";
                # treat those entries as stored at load time.
                ts = record.get("ts")
                loaded.pop(key, None)   # a later line is the newer store
                loaded[key] = (
                    value,
                    float(ts) if isinstance(ts, (int, float)) else now,
                    req if isinstance(req, dict) else None,
                )
        with self._lock:
            self._core.clear()
            for key, entry in list(loaded.items())[-self.maxsize:]:
                self._core.put(key, entry)
            return len(self._core)

    def compact(self) -> None:
        """Rewrite the persistence file to exactly the resident entries."""
        if self.path is None:
            return
        with self._lock:
            lines = [_record(key, value, stored, aux)
                     for key, (value, stored, aux) in self._core.items()]
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            os.replace(tmp, self.path)
