"""Async restructure jobs: priority queue, runners, checkpoints, adoption.

A :class:`JobManager` turns the engine's long-running restructure
search into background work:

* ``submit`` validates a :class:`RestructureJobRequest`, writes a
  ``queued`` record to the :class:`~repro.service.jobstore.JobStore`,
  and returns immediately with a job id;
* a fixed set of runner threads -- one by default, so at most one
  background search competes with foreground requests for the
  interpreter -- drains a priority heap and drives each search through
  :meth:`PredictionEngine.run_restructure_job`;
* every beam round boundary appends a best-so-far event, persists a
  versioned checkpoint, refreshes the heartbeat, and re-reads the
  record -- which is simultaneously the cooperative *cancellation*
  point (``cancel_requested``) and the ownership *fence* (a runner
  that lost its job to an adopter stops instead of racing it);
* any shard pointed at the same store directory **adopts** a job whose
  owner's heartbeat has gone stale -- the router's affinity walk sends
  status/events requests for a dead shard's jobs to its ring
  successor, whose manager re-queues the job and resumes it from the
  last checkpoint.  Checkpoint resume is bit-identical to an
  uninterrupted search (``transform/search.py``), so a SIGKILL costs
  at most one round of work and never changes the answer.

Job ids embed the program digest (``<digest>.<nonce>``) so the router
can extract the ring key from the id alone and route job reads to the
same shard that owns the program's cache slice.
"""

from __future__ import annotations

import heapq
import logging
import os
import threading
import time
import uuid
from typing import Any, Mapping

from ..ir.digest import program_digest
from ..ir.parser import parse_program
from ..obs import Tracer, current_context, get_request_id, trace_span
from .engine import (
    PredictionEngine,
    _cache_key,
    _canonical_mapping,
    _CLIENT_ERRORS,
    _machine_fingerprint,
    _parse_sources,
)
from .jobstore import (   # the job-path helpers are re-exported
    JOBS_PREFIX,
    JobStore,
    job_affinity_key,
    parse_job_path,
    valid_job_id,
)
from .metrics import MetricsRegistry
from .protocol import error_envelope, request_from_dict

__all__ = [
    "JOBS_PREFIX", "JobManager", "TERMINAL_STATUSES", "job_affinity_key",
    "parse_job_path", "public_view",
]

log = logging.getLogger("repro.service.jobs")

TERMINAL_STATUSES = frozenset({"done", "error", "cancelled"})

#: Record fields exposed on the wire (everything else -- request
#: payload, timestamps, cancel flag -- is subsystem-internal).
_PUBLIC_FIELDS = (
    "job_id", "status", "digest", "machine", "rounds", "priority",
    "adopted", "owner", "best_sequence", "best_cost", "result", "error",
)


def public_view(record: Mapping[str, Any]) -> dict[str, Any]:
    """Project a store record onto the :class:`JobStatusResponse` schema."""
    return {name: record.get(name) for name in _PUBLIC_FIELDS}


def _params_key(request) -> str:
    """Everything besides the program that shapes the search trajectory.

    A checkpoint taken under one parameter set must never seed a search
    under another -- resuming a ``beam_width=4`` frontier into a
    ``beam_width=1`` search would be neither run's answer.
    """
    return "|".join((
        request.machine,
        f"wl={_canonical_mapping(request.workload)}",
        f"dom={_canonical_mapping(request.domain)}",
        f"depth={request.depth}", f"nodes={request.max_nodes}",
        f"beam={request.beam_width}",
    ))


class JobManager:
    """Own the job queue and runner threads for one engine process."""

    def __init__(
        self,
        engine: PredictionEngine,
        store: JobStore,
        *,
        slots: int | None = None,
        stale_after: float = 5.0,
        owner: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.engine = engine
        self.store = store
        self.slots = slots if slots and slots > 0 else 1
        self.stale_after = stale_after
        self.owner = owner or f"pid:{os.getpid()}.{uuid.uuid4().hex[:6]}"
        self.metrics = metrics if metrics is not None else engine.metrics
        self._queue: list[tuple[int, int, str]] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._local: set[str] = set()    # queued or running in this process
        self._running: set[str] = set()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._events = self.metrics.counter(
            "repro_jobs_total", "Job lifecycle events by type.")
        self._rounds_counter = self.metrics.counter(
            "repro_job_rounds_total", "Search rounds executed by job runners.")
        self._round_seconds = self.metrics.histogram(
            "repro_job_round_seconds", "Wall time per job search round.")

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "JobManager":
        if self._threads:
            return self
        for index in range(self.slots):
            thread = threading.Thread(
                target=self._runner, name=f"repro-job-runner-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    # -- submission -----------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Validate, persist, and enqueue; returns the full store record.

        Raises the usual client-error types on an invalid payload (the
        server maps them to a 400 envelope at the boundary).
        """
        request = request_from_dict("restructure_job", payload)
        digest = program_digest(parse_program(request.source))
        _machine_fingerprint(request.machine)   # unknown machine -> KeyError
        job_id = f"{digest}.{uuid.uuid4().hex[:8]}"
        # Capture the submitting request's trace context; the runner
        # thread (possibly on another shard, after adoption) seeds its
        # tracer from it so the whole job joins the submit trace.
        ctx = current_context()
        trace_block = None
        if ctx is not None:
            trace_block = {"trace_id": ctx.trace_id,
                           "parent_id": ctx.span_id,
                           "request_id": get_request_id()}
        now = time.time()
        with trace_span("job.submit", job_id=job_id, digest=digest,
                        priority=request.priority):
            record = self.store.create(job_id, {
                "status": "queued", "digest": digest,
                "machine": request.machine, "priority": request.priority,
                "request": dict(payload),
                "trace": trace_block,
                "owner": self.owner, "heartbeat": now, "created": now,
                "rounds": 0, "adopted": 0, "cancel_requested": False,
                "best_sequence": None, "best_cost": None,
                "result": None, "error": None,
            })
            self._enqueue(job_id, request.priority)
        self._events.inc(event="submitted")
        return record

    def _enqueue(self, job_id: str, priority: int) -> None:
        with self._cond:
            if job_id in self._local:
                return
            self._local.add(job_id)
            heapq.heappush(self._queue, (-priority, self._seq, job_id))
            self._seq += 1
            self._cond.notify()

    # -- reads (with adoption) ------------------------------------------
    def status(self, job_id: str) -> dict[str, Any] | None:
        """The job's record, adopting it first if its owner went quiet."""
        if not valid_job_id(job_id):
            return None
        record = self.store.get(job_id)
        if record is None:
            return None
        return self._maybe_adopt(record)

    def events(self, job_id: str, from_round: int = 0) -> list[dict[str, Any]]:
        if not valid_job_id(job_id):
            return []
        return self.store.events(job_id, from_round=from_round)

    def _maybe_adopt(self, record: dict[str, Any]) -> dict[str, Any]:
        """Re-queue a job whose owning shard stopped heartbeating.

        The router walks the ring on failover, so a status or events
        request for a dead shard's job lands here -- on the successor.
        Jobs queued or running in *this* process are never adopted
        (their heartbeat only moves at round boundaries); a briefly
        double-owned job is resolved by the per-round owner fence.
        """
        job_id = record["job_id"]
        if record.get("status") in TERMINAL_STATUSES:
            return record
        with self._cond:
            if job_id in self._local:
                return record
        if time.time() - float(record.get("heartbeat") or 0) < self.stale_after:
            return record
        adopted = self.store.update(
            job_id, owner=self.owner, status="queued",
            heartbeat=time.time(), adopted=int(record.get("adopted", 0)) + 1)
        if adopted is None:
            return record
        self._enqueue(job_id, int(adopted.get("priority") or 0))
        self._events.inc(event="adopted")
        log.info("adopted stale job", extra={"fields": {
            "job_id": job_id, "owner": self.owner,
            "rounds": adopted.get("rounds", 0)}})
        return adopted

    # -- cancellation ---------------------------------------------------
    def cancel(self, job_id: str) -> dict[str, Any] | None:
        """Request cooperative cancellation; returns the updated record.

        A queued job is finalized immediately; a running one stops at
        its next round boundary (the runner reads ``cancel_requested``
        when it refreshes the heartbeat).  Cancelling a terminal job is
        a no-op that returns the record as-is.
        """
        if not valid_job_id(job_id):
            return None
        record = self.store.get(job_id)
        if record is None:
            return None
        if record.get("status") in TERMINAL_STATUSES:
            return record
        record = self.store.update(job_id, cancel_requested=True)
        if record is None:
            return None
        with self._cond:
            queued_here = (job_id in self._local
                           and job_id not in self._running)
        if queued_here or record.get("status") == "queued":
            return self._finish_cancelled(job_id)
        return record

    # -- runner ---------------------------------------------------------
    def _runner(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                while not self._queue and not self._stop.is_set():
                    self._cond.wait(timeout=0.5)
                if self._stop.is_set():
                    return
                _, _, job_id = heapq.heappop(self._queue)
                self._running.add(job_id)
            try:
                self._run_job(job_id)
            except Exception:  # noqa: BLE001 -- a runner must never die
                log.exception("job runner crashed",
                              extra={"fields": {"job_id": job_id}})
                self._finish_error(job_id, error_envelope(
                    RuntimeError("job runner crashed"), status=500))
            finally:
                with self._cond:
                    self._running.discard(job_id)
                    self._local.discard(job_id)

    def _run_job(self, job_id: str) -> None:
        record = self.store.get(job_id)
        if record is None or record.get("status") in TERMINAL_STATUSES:
            return
        if record.get("owner") != self.owner:
            return   # adopted away while queued here; let the adopter run it
        trace_info = record.get("trace") or {}
        if not trace_info.get("trace_id"):
            # Untraced submit: run with zero tracing machinery -- no
            # tracer, and every trace_span below is the shared no-op.
            self._execute_job(job_id, record, trace_info)
            return
        tracer = Tracer(metrics=self.metrics,
                        trace_id=trace_info["trace_id"],
                        remote_parent_id=trace_info.get("parent_id"))
        try:
            with tracer.activate():
                with trace_span("job.run", job_id=job_id,
                                owner=self.owner,
                                resumed_rounds=int(record.get("rounds") or 0)):
                    self._execute_job(job_id, record, trace_info)
        finally:
            # Deposit under the submitting request id (what
            # /debug/trace stitches on) and the job id (handy when
            # only the job id is known).
            spans = tracer.export()
            request_id = trace_info.get("request_id")
            if request_id:
                self.engine.traces.put(request_id, spans)
            if request_id != job_id:
                self.engine.traces.put(job_id, spans)

    @staticmethod
    def _stamp(event: dict[str, Any],
               trace_info: Mapping[str, Any]) -> dict[str, Any]:
        """Stamp SSE/ndjson job events with their trace identity."""
        if trace_info.get("request_id"):
            event["request_id"] = trace_info["request_id"]
        if trace_info.get("trace_id"):
            event["trace_id"] = trace_info["trace_id"]
        return event

    def _execute_job(self, job_id: str, record: dict[str, Any],
                     trace_info: Mapping[str, Any]) -> None:
        if record.get("cancel_requested"):
            self._finish_cancelled(job_id)
            return
        try:
            request = request_from_dict(
                "restructure_job", record.get("request") or {})
            restructure = request.to_restructure()
            digest = record["digest"]
            fingerprint = _machine_fingerprint(request.machine)
        except _CLIENT_ERRORS as error:
            self._finish_error(job_id, error_envelope(error, status=400))
            return
        params = _params_key(restructure)
        resume_from = None
        loaded = self.store.load_checkpoint(
            job_id, digest=digest, fingerprint=fingerprint, params_key=params)
        if loaded is not None:
            resumed_rounds, resume_from = loaded
            self._events.inc(event="resumed")
            log.info("resuming job from checkpoint", extra={"fields": {
                "job_id": job_id, "rounds": resumed_rounds}})
        self.store.update(job_id, status="running", heartbeat=time.time())

        stop_reason: list[str | None] = [None]
        round_started = [time.perf_counter()]

        def on_round(progress) -> bool:
            now = time.perf_counter()
            self._rounds_counter.inc()
            round_seconds = now - round_started[0]
            self._round_seconds.observe(round_seconds)
            round_started[0] = now
            with trace_span("job.round", job_id=job_id,
                            round=progress.round,
                            expanded=progress.expanded,
                            round_seconds=round(round_seconds, 6)):
                self.store.append_event(job_id, self._stamp({
                    "job_id": job_id, "round": progress.round,
                    "best_sequence": progress.best_sequence,
                    "best_cost": str(progress.best_cost),
                    "expanded": progress.expanded,
                    "frontier_size": progress.frontier_size,
                }, trace_info))
                with trace_span("job.checkpoint", job_id=job_id,
                                round=progress.round):
                    self.store.save_checkpoint(
                        job_id, digest=digest, fingerprint=fingerprint,
                        params_key=params, rounds=progress.round,
                        state=progress.checkpoint)
                current = self.store.update(
                    job_id, rounds=progress.round, heartbeat=time.time(),
                    best_sequence=progress.best_sequence,
                    best_cost=str(progress.best_cost))
            # The freshly-read record is authoritative: another shard
            # may have adopted the job (owner fence), or a cancel may
            # have arrived (possibly via a different shard).
            if current is None or current.get("owner") != self.owner:
                stop_reason[0] = "fenced"
                return False
            if current.get("cancel_requested"):
                stop_reason[0] = "cancelled"
                return False
            return True

        result = self.engine.run_restructure_job(
            restructure, on_round=on_round, resume_from=resume_from)

        if stop_reason[0] == "fenced":
            self._events.inc(event="fenced")
            log.info("job fenced off (adopted elsewhere)",
                     extra={"fields": {"job_id": job_id}})
            return
        if stop_reason[0] == "cancelled":
            self._finish_cancelled(job_id)
            return
        if "error" in result:
            self._finish_error(job_id, result)
            return
        # Success: the job's answer is exactly what the synchronous
        # endpoint would have computed, so warm the result cache with it.
        try:
            key = _cache_key("restructure", restructure,
                             _parse_sources("restructure", restructure))
            self.engine.cache_result(key, result)
        except Exception:  # noqa: BLE001 -- cache warming is best-effort
            pass
        best = {"best_sequence": result.get("sequence"),
                "best_cost": result.get("cost")}
        self._finish(job_id, "done", best, result=result, **best)
        self._events.inc(event="completed")

    # -- terminal transitions -------------------------------------------
    def _finish(self, job_id: str, status: str, event: dict[str, Any],
                **fields: Any) -> dict[str, Any] | None:
        """Append the final event, then write the terminal record.

        In that order: a reader that sees a terminal status must find
        the final event already in the log.
        """
        with trace_span("job.finish", job_id=job_id, status=status):
            record = self.store.get(job_id) or {}
            self.store.append_event(job_id, self._stamp({
                "job_id": job_id, "final": True, "status": status,
                "round": record.get("rounds", 0), **event,
            }, record.get("trace") or {}))
            updated = self.store.update(
                job_id, status=status, heartbeat=time.time(),
                finished=time.time(), **fields)
            self.store.drop_checkpoint(job_id)
        return updated

    def _finish_cancelled(self, job_id: str) -> dict[str, Any] | None:
        record = self._finish(job_id, "cancelled", {})
        self._events.inc(event="cancelled")
        return record

    def _finish_error(self, job_id: str, envelope: dict[str, Any]) -> None:
        self._finish(job_id, "error", {
            "error": envelope.get("error"),
            "message": envelope.get("message"),
        }, error=envelope)
        self._events.inc(event="failed")

    # -- observability --------------------------------------------------
    def export_metrics(self) -> None:
        """Refresh the job gauges (called at /metrics scrape time)."""
        with self._cond:
            queued = len(self._queue)
            running = len(self._running)
        self.metrics.gauge(
            "repro_jobs_queued",
            "Jobs waiting for a runner slot (this process).").set(queued)
        self.metrics.gauge(
            "repro_jobs_running",
            "Jobs currently executing (this process).").set(running)
        self.metrics.gauge(
            "repro_job_slots", "Configured job runner slots.").set(self.slots)
