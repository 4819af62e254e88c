"""Cross-process trace context: W3C ``traceparent`` carry and storage.

One request that crosses the router, a shard server, its worker
processes, and a job-runner thread should yield *one* trace.  The
pieces here make that possible without any third-party tracing stack:

* :class:`TraceContext` + :func:`format_traceparent` /
  :func:`parse_traceparent` -- the W3C Trace Context header
  (``00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>``)
  carried on every router->shard HTTP hop and honored by the server's
  request scope, so a shard's root span parents under the router's
  ``router.forward`` span and shares its trace id;
* :func:`current_context` -- the propagation view of "where am I":
  the active tracer's trace id plus the innermost open span, ready to
  be serialized onto an outgoing hop or into a worker task;
* :class:`TraceBuffer` -- a bounded request-id -> spans LRU each
  engine keeps, backing ``GET /debug/trace/<request_id>``;
* :class:`ExemplarRing` -- the router's bounded keep of *interesting*
  traces (every failed request, plus the slowest successes), so the
  operator can pull a stitched Chrome trace for exactly the requests
  worth looking at.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import heapq
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .caches import BoundedCache
from .tracer import current_span, current_tracer

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "format_traceparent",
    "parse_traceparent",
    "current_context",
    "TraceBuffer",
    "ExemplarRing",
]

#: Canonical header name (HTTP header lookup is case-insensitive).
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a trace: (trace id, parent span id)."""

    trace_id: str
    span_id: str | None
    sampled: bool = True


def format_traceparent(context: TraceContext) -> str | None:
    """Serialize a context to a ``traceparent`` header value.

    Returns ``None`` when the context has no span to parent under --
    the W3C format has no way to say "trace id only" (an all-zero
    parent id is defined as invalid), so such hops simply omit the
    header.
    """
    if not context.span_id:
        return None
    flags = "01" if context.sampled else "00"
    return f"00-{context.trace_id}-{context.span_id}-{flags}"


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; tolerant of garbage (-> ``None``).

    A malformed header from an arbitrary client must never fail the
    request -- propagation is best-effort, so anything that does not
    match the format (bad lengths, uppercase hex, all-zero ids, the
    reserved ``ff`` version) yields ``None`` and the request starts a
    fresh trace.
    """
    if not header:
        return None
    match = _TRACEPARENT.match(header.strip())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id, sampled=bool(int(flags, 16) & 1))


def current_context() -> TraceContext | None:
    """The context an outgoing hop (or worker task) should carry.

    ``None`` when tracing is off -- callers skip the header entirely,
    which keeps the disabled-mode cost of a hop to one context-variable
    read.  With a tracer but no open span (shouldn't happen on request
    paths), the remote parent the tracer itself was seeded with is
    passed through so the chain stays connected.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    span = current_span()
    if span is not None and span.recording:
        return TraceContext(tracer.trace_id, span.span_id)
    return TraceContext(tracer.trace_id, tracer.remote_parent_id)


class TraceBuffer:
    """Bounded request-id -> finished-spans LRU (the ``trace`` cache).

    Each engine keeps one; the server deposits every traced request's
    spans and the job manager deposits job traces under the submitting
    request's id, so ``GET /debug/trace/<request_id>`` can answer for
    recent requests.  A second deposit under an existing key *extends*
    it -- that is exactly the async-job case, where the submit
    request's spans and the job run's spans belong to one trace.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, capacity)
        self._data: BoundedCache[str, list[dict[str, Any]]] = \
            BoundedCache("trace", self.capacity)
        #: Makes extend-or-insert atomic against a concurrent deposit.
        self._lock = threading.Lock()

    def put(self, request_id: str,
            spans: Iterable[Mapping[str, Any]]) -> None:
        records = [dict(span) for span in spans]
        if not request_id or not records:
            return
        with self._lock:
            existing = self._data.peek(request_id)
            if existing is not None:
                existing.extend(records)
            else:
                self._data.put(request_id, records)

    def get(self, request_id: str) -> list[dict[str, Any]] | None:
        records = self._data.get(request_id)
        return list(records) if records is not None else None

    def request_ids(self) -> list[str]:
        return [request_id for request_id, _ in self._data.items()]

    def __len__(self) -> int:
        return len(self._data)


class ExemplarRing:
    """The router's bounded keep of failed and slowest request traces.

    Two compartments, each capped at ``capacity``:

    * every *failed* (5xx) request's trace, oldest evicted first;
    * the *slowest* successful requests seen so far (a min-heap keyed
      on duration decides admission once full).

    ``get`` answers from either compartment, so
    ``GET /debug/trace/<request_id>`` works for exactly the requests an
    operator is likely to ask about.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = max(1, capacity)
        self._failed: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._slow: dict[str, dict[str, Any]] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def offer(self, request_id: str, spans: Iterable[Mapping[str, Any]],
              seconds: float, *, failed: bool = False) -> None:
        records = [dict(span) for span in spans]
        if not request_id or not records:
            return
        entry = {"request_id": request_id, "seconds": float(seconds),
                 "failed": bool(failed), "spans": records}
        with self._lock:
            if failed:
                self._failed[request_id] = entry
                self._failed.move_to_end(request_id)
                while len(self._failed) > self.capacity:
                    self._failed.popitem(last=False)
                return
            if request_id in self._slow:
                return      # one trace per request id
            if len(self._slow) < self.capacity:
                self._slow[request_id] = entry
                heapq.heappush(self._heap,
                               (entry["seconds"], self._seq, request_id))
                self._seq += 1
                return
            if self._heap and seconds > self._heap[0][0]:
                _, _, evicted = heapq.heapreplace(
                    self._heap, (entry["seconds"], self._seq, request_id))
                self._seq += 1
                self._slow.pop(evicted, None)
                self._slow[request_id] = entry

    def get(self, request_id: str) -> list[dict[str, Any]] | None:
        with self._lock:
            entry = (self._failed.get(request_id)
                     or self._slow.get(request_id))
            return list(entry["spans"]) if entry is not None else None

    def snapshot(self) -> list[dict[str, Any]]:
        """Summaries (id, seconds, failed) of everything retained."""
        with self._lock:
            entries = list(self._failed.values()) + list(self._slow.values())
        return [{k: entry[k] for k in ("request_id", "seconds", "failed")}
                for entry in sorted(entries, key=lambda e: -e["seconds"])]

    def __len__(self) -> int:
        with self._lock:
            return len(self._failed) + len(self._slow)
