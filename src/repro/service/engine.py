"""The prediction engine: batched, concurrent, cached request execution.

Requests (predict / compare / restructure / kernels) come in as wire
dicts or typed :mod:`protocol` dataclasses, singly or in batches.  The
engine:

1. validates each request strictly at the boundary;
2. computes its content-addressed cache key (canonical program digest
   + machine + back-end capability flags + evaluation point) and
   answers hits without touching a worker; identical misses within a
   batch execute once and fan back out;
3. fans the misses out over a worker pool -- ``ProcessPoolExecutor``
   for true CPU parallelism of the pure-Python cost model, degrading
   automatically to threads (Windows spawn quirks, pickling edge
   cases, broken pools) and to inline execution for ``workers <= 1``;
4. stores fresh results back in the cache and reports counters and
   latencies to a :class:`~repro.service.metrics.MetricsRegistry`.

Scheduling is *weight-classed* by default: a tiny predict and a
depth-3 restructure differ by three orders of magnitude, so giving
each its own pool task lets one heavy request occupy a worker for
seconds while light requests queue behind it.  Instead the engine

* groups light requests (predict / compare / small restructures) into
  shared chunk tasks, amortizing pool overhead and keeping their
  queueing delay bounded by a chunk, not a search;
* splits each heavy restructure into per-round subtasks: the A* round
  loop runs engine-side and ships every round's fresh candidates to
  the shared pool in chunks capped at ``workers - 1``, so a single
  request can never occupy the whole pool;
* submits light chunks *before* heavy subtasks, so FIFO pools serve
  them first.

``scheduling="naive"`` restores one-task-per-request (the E-SERVICE
bench compares the two).

Workers keep a bounded pool of :class:`IncrementalPredictor` instances
(:func:`~repro.transform.parallel.shared_predictor` -- the same LRU the
parallel search uses), so repeated work on the same program -- other
evaluation points, restructure probes -- reuses the paper's section
3.3.1 affected-region cache instead of re-aggregating from scratch.
Worker tasks also report their placement-memo hit/miss deltas, which
the engine folds into ``repro_placement_cache_requests_total``.
"""

from __future__ import annotations

import logging
import pickle
import threading
import time
from concurrent.futures import (
    CancelledError,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from ..cost.placement import placement_cache_stats
from ..ir.digest import program_digest, stmts_digest
from ..ir.parser import ParseError, parse_program
from ..ir.lexer import LexError
from ..machine.registry import get_machine, machine_fingerprint
from ..obs import (
    TraceBuffer,
    Tracer,
    current_context,
    current_tracer,
    trace_span,
)
from ..symbolic.poly import PolyError
from ..transform.parallel import (
    _chunked,
    _predictors,
    evaluate_chunk,
    shared_predictor,
)
from .cache import ResultCache, endpoint_of
from .metrics import MetricsRegistry, export_memo_metrics
from .protocol import (
    CompareRequest,
    CompareResponse,
    KernelRow,
    KernelsRequest,
    KernelsResponse,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    RestructureRequest,
    RestructureResponse,
    SweepPointRow,
    SweepRequest,
    SweepResponse,
    error_envelope,
    parse_bindings,
    parse_domain,
    request_from_dict,
    response_from_dict,
    response_to_dict,
)

__all__ = [
    "PredictionEngine", "ServiceError", "execute_request",
    "execute_request_chunk",
]

#: Exceptions that mean "the client sent something invalid" (HTTP 400),
#: as opposed to an internal fault (HTTP 500).
_CLIENT_ERRORS = (ProtocolError, ParseError, LexError, PolyError, KeyError, ValueError)

log = logging.getLogger("repro.service.engine")

#: Cache entries live seconds to days; buckets for age telemetry.
CACHE_AGE_BUCKETS = (1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 21600.0, 86400.0)

#: ``depth * max_nodes`` at which a restructure counts as heavy (worth
#: splitting into per-round subtasks rather than riding in a chunk).
_SPLIT_THRESHOLD = 100

#: Smallest number of light requests (or search candidates) worth a
#: pool task of their own; below this, chunks are merged.
_GROUP_MIN = 4


class ServiceError(Exception):
    """A request failed; carries the wire error envelope."""

    def __init__(self, envelope: dict[str, Any]):
        super().__init__(envelope.get("message", "service error"))
        self.envelope = envelope


# ----------------------------------------------------------------------
# worker-side execution (module-level so ProcessPoolExecutor can pickle)


def _symbolic_cost(source: str, machine_name: str, backend: str,
                   include_memory: bool):
    """(program, digest, symbolic cost), via the per-worker predictor pool."""
    program = parse_program(source)
    digest = program_digest(program)
    machine = get_machine(machine_name)
    # The fingerprint (memoized per registered factory) rides in the
    # key so recalibrating a machine under the same name retires the
    # old predictor instead of serving its stale table.
    predictor = shared_predictor(
        (digest, machine_name, machine_fingerprint(machine_name), backend,
         include_memory),
        machine, program, backend, include_memory,
    )
    return program, digest, predictor.predict(program)


def _do_predict(request: PredictRequest) -> PredictResponse:
    _, digest, cost = _symbolic_cost(
        request.source, request.machine, request.backend,
        request.include_memory,
    )
    bindings = parse_bindings(request.bindings)
    cycles = str(cost.evaluate(bindings)) if bindings else None
    return PredictResponse(
        cost=str(cost),
        digest=digest,
        machine=request.machine,
        backend=request.backend,
        variables=tuple(sorted(cost.variables())),
        cycles=cycles,
    )


def _do_compare(request: CompareRequest) -> CompareResponse:
    from ..compare.comparator import compare
    from ..compare.regions import region_report

    _, digest_first, cost_first = _symbolic_cost(
        request.first, request.machine, "aggressive", False)
    _, digest_second, cost_second = _symbolic_cost(
        request.second, request.machine, "aggressive", False)
    result = compare(cost_first, cost_second,
                     domain=parse_domain(request.domain) or None)
    return CompareResponse(
        cost_first=str(cost_first),
        cost_second=str(cost_second),
        verdict=result.verdict.value,
        report=region_report(result),
        digest_first=digest_first,
        digest_second=digest_second,
        machine=request.machine,
    )


def _restructure_transformations() -> list:
    from ..transform import (
        Distribute,
        Fuse,
        Interchange,
        ReorderStatements,
        StripMine,
        Unroll,
        UnrollAndJam,
    )

    return [Unroll(factors=(2, 4)), UnrollAndJam(factors=(2, 4)),
            Interchange(), StripMine(tiles=(16,)),
            Fuse(), Distribute(), ReorderStatements()]


def _restructure_response(
    request: RestructureRequest,
    evaluate_batch: Callable[[list], list] | None = None,
    *,
    on_round: Callable[[Any], Any] | None = None,
    resume_from: Any | None = None,
) -> RestructureResponse:
    """The restructure endpoint's body, shared by both execution shapes.

    Run whole on a worker (``evaluate_batch=None``), or engine-side
    with each search round's candidate batch shipped to the pool (the
    split path).  Either way the search is deterministic, so both
    shapes produce the same response for the same request.

    ``on_round`` and ``resume_from`` thread straight into
    :func:`~repro.transform.search.astar_search` -- the job subsystem
    uses them for per-round checkpoints and cooperative cancellation.
    """
    from ..ir.printer import print_program
    from ..transform import astar_search

    program = parse_program(request.source)
    digest = program_digest(program)
    machine = get_machine(request.machine)
    predictor = shared_predictor(
        (digest, request.machine, machine_fingerprint(request.machine),
         "aggressive", False), machine, program)
    workload = {
        name: int(value)
        for name, value in parse_bindings(request.workload).items()
    } or None
    result = astar_search(
        program,
        _restructure_transformations(),
        predictor,
        workload=workload,
        max_depth=request.depth,
        max_nodes=request.max_nodes,
        domain=parse_domain(request.domain) or None,
        beam_width=request.beam_width,
        evaluate_batch=evaluate_batch,
        on_round=on_round,
        resume_from=resume_from,
    )
    return RestructureResponse(
        sequence=result.sequence,
        cost=str(result.cost),
        program=print_program(result.program),
        digest=digest,
        machine=request.machine,
        nodes_expanded=result.nodes_expanded,
    )


def _do_restructure(request: RestructureRequest) -> RestructureResponse:
    return _restructure_response(request)


def _do_kernels(request: KernelsRequest) -> KernelsResponse:
    from ..backend.simulator import simulate
    from ..bench.kernels import kernel, kernel_names, kernel_stream
    from ..cost import StraightLineEstimator

    machine = get_machine(request.machine)
    estimator = StraightLineEstimator(machine)
    rows = []
    for name in kernel_names():
        info = kernel_stream(kernel(name), machine)
        predicted = estimator.estimate(info.stream).cycles
        iterative = [i for i in info.stream if not i.one_time]
        reference = simulate(machine, iterative).cycles
        error = 100.0 * (predicted - reference) / reference
        rows.append(KernelRow(name, predicted, reference, round(error, 2)))
    return KernelsResponse(machine=request.machine, rows=tuple(rows))


def _do_sweep(request: SweepRequest) -> SweepResponse:
    from ..sweep import sweep_program

    from ..machine.registry import cached_machine

    program = parse_program(request.source)
    digest = program_digest(program)
    # cached_machine keeps the base identity stable across requests, so
    # the sweep's symbolic memo (and the family-member memo behind it)
    # stay hot; recalibration swaps the instance and retires both.
    machine = cached_machine(request.machine)
    outcome = sweep_program(
        program,
        machine=machine,
        widths=tuple(request.widths) if request.widths else None,
        bindings=parse_bindings(request.bindings),
        branch_miss_rate=float(request.branch_miss_rate),
        cache_miss_rate=float(request.cache_miss_rate),
        cache_key=digest,
    )
    return SweepResponse(
        machine=request.machine,
        digest=digest,
        widths=outcome.widths,
        points=tuple(
            SweepPointRow(
                width=p.width, cycles=p.cycles, ipc=p.ipc,
                fingerprint=p.fingerprint,
                placement_cycles=p.placement_cycles,
                penalty_cycles=p.penalty_cycles,
            ) for p in outcome.points
        ),
        saturation_width=outcome.saturation_width,
        instructions=outcome.instructions,
    )


_HANDLERS = {
    "predict": _do_predict,
    "compare": _do_compare,
    "restructure": _do_restructure,
    "kernels": _do_kernels,
    "sweep": _do_sweep,
}


def execute_request(kind: str, payload: Mapping[str, Any],
                    collect_trace: bool = False,
                    trace_context: tuple[str, str | None] | None = None,
                    ) -> dict[str, Any]:
    """Run one request end to end; never raises -- errors become envelopes.

    This is the unit of work shipped to pool workers, so both the
    argument and the return value are plain picklable dicts.  With
    ``collect_trace``, the request runs under a fresh request-local
    tracer and the finished spans travel back in the result under
    ``"trace"`` -- the engine re-ingests them, since a worker process's
    tracer (and metrics registry) dies with the worker.
    ``trace_context`` is the caller's ``(trace_id, parent_span_id)``;
    seeding the worker tracer with it keeps the worker's spans in the
    same trace as the serving request, so exported traces stitch
    across the process boundary.
    """
    if collect_trace:
        tracer = (Tracer(trace_id=trace_context[0],
                         remote_parent_id=trace_context[1])
                  if trace_context else Tracer())
        with tracer.activate():
            result = _execute_one(kind, payload)
        result["trace"] = tracer.export()
        return result
    return _execute_one(kind, payload)


def _placement_delta(before: Mapping[str, int],
                     after: Mapping[str, int]) -> dict[str, int]:
    return {"hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"]}


def execute_request_chunk(jobs: Sequence[tuple[str, Mapping[str, Any]]],
                          collect_trace: bool = False,
                          trace_context: tuple[str, str | None] | None = None,
                          ) -> dict[str, Any]:
    """Run several light requests as one pool task.

    A task per tiny predict pays pool round-trip overhead comparable to
    the work itself; grouping amortizes it.  The worker also reports
    its placement-memo hit/miss delta, which the engine cannot observe
    across a process boundary.
    """
    before = placement_cache_stats()
    results = [execute_request(kind, payload, collect_trace, trace_context)
               for kind, payload in jobs]
    return {"results": results,
            "placement": _placement_delta(before, placement_cache_stats())}


def _search_round_chunk(root, root_key, machine, programs) -> dict[str, Any]:
    """Evaluate one slice of a split restructure's round batch."""
    before = placement_cache_stats()
    costs = evaluate_chunk(root, root_key, machine, programs)
    return {"costs": costs,
            "placement": _placement_delta(before, placement_cache_stats())}


def _fast_path_trace(kind: str) -> list[dict[str, Any]]:
    """The trace block for a surrogate answer: one honest span.

    The fast tier never runs the pipeline, so there are no pipeline
    spans to show -- just the serving lookup itself.
    """
    ctx = current_context()
    tracer = (Tracer(trace_id=ctx.trace_id, remote_parent_id=ctx.span_id)
              if ctx is not None else Tracer())
    with tracer.activate():
        with trace_span("engine.execute", kind=kind, fidelity="fast"):
            pass
    return tracer.export()


def _cache_hit_trace(kind: str) -> list[dict[str, Any]]:
    """The trace block for a cache hit: one ``engine.execute`` span.

    Hits never re-run the pipeline, so replaying the stored pipeline
    spans would report work that did not happen; a traced hit instead
    gets a single honest span marking the lookup (joined to the serving
    request's trace when one is active).
    """
    ctx = current_context()
    tracer = (Tracer(trace_id=ctx.trace_id, remote_parent_id=ctx.span_id)
              if ctx is not None else Tracer())
    with tracer.activate():
        with trace_span("engine.execute", kind=kind, cached=True):
            pass
    return tracer.export()


def _trace_ctx() -> tuple[str, str | None] | None:
    """The ambient trace context as a picklable (trace_id, parent) tuple."""
    ctx = current_context()
    if ctx is None:
        return None
    return (ctx.trace_id, ctx.span_id)


def _execute_one(kind: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    try:
        request = request_from_dict(kind, payload)
        with trace_span(kind, machine=getattr(request, "machine", "")):
            return response_to_dict(_HANDLERS[kind](request))
    except _CLIENT_ERRORS as error:
        return error_envelope(error, status=400)
    except Exception as error:  # noqa: BLE001 -- envelope, don't crash a worker
        return error_envelope(error, status=500)


# ----------------------------------------------------------------------
# cache keys (computed engine-side, before any worker is involved)


def _canonical_mapping(raw: Mapping[str, Any] | None) -> str:
    if not raw:
        return "-"
    return ",".join(f"{k}={raw[k]}" for k in sorted(raw))


#: The registry memoizes per registered factory (``get_machine`` builds
#: a fresh Machine each call, so an object-identity memo here never
#: hit), which makes the fingerprint free on the hot path while still
#: recomputing when recalibration registers a retrained factory.
_machine_fingerprint = machine_fingerprint


def _cache_key(kind: str, request: Any) -> str:
    """Content-addressed key: program digests + everything that matters.

    ``fp`` is the machine's cost-table fingerprint: recalibrating a
    machine (``repro.machine.training``) changes the predicted numbers
    without changing the machine *name*, so persisted entries from the
    old table must stop matching.
    """
    fp = f"fp={_machine_fingerprint(request.machine)}"
    if kind == "predict":
        digest = program_digest(parse_program(request.source))
        return "|".join((
            "predict", digest, request.machine, fp, request.backend,
            f"mem={int(request.include_memory)}",
            f"at={_canonical_mapping(request.bindings)}",
        ))
    if kind == "compare":
        first = program_digest(parse_program(request.first))
        second = program_digest(parse_program(request.second))
        return "|".join((
            "compare", first, second, request.machine, fp,
            f"dom={_canonical_mapping(request.domain)}",
        ))
    if kind == "restructure":
        digest = program_digest(parse_program(request.source))
        return "|".join((
            "restructure", digest, request.machine, fp,
            f"wl={_canonical_mapping(request.workload)}",
            f"dom={_canonical_mapping(request.domain)}",
            f"depth={request.depth}", f"nodes={request.max_nodes}",
            f"beam={request.beam_width}",
        ))
    if kind == "kernels":
        return f"kernels|{request.machine}|{fp}"
    if kind == "sweep":
        digest = program_digest(parse_program(request.source))
        widths = (",".join(str(w) for w in request.widths)
                  if request.widths else "-")
        return "|".join((
            "sweep", digest, request.machine, fp,
            f"w={widths}",
            f"br={request.branch_miss_rate}",
            f"cm={request.cache_miss_rate}",
            f"at={_canonical_mapping(request.bindings)}",
        ))
    raise ProtocolError(f"unknown request kind {kind!r}")


_KIND_BY_TYPE = {
    PredictRequest: "predict",
    CompareRequest: "compare",
    RestructureRequest: "restructure",
    KernelsRequest: "kernels",
    SweepRequest: "sweep",
}


def _predict_aux(entry: "_Pending", result: Mapping[str, Any],
                 ) -> dict[str, Any] | None:
    """The ``req`` block persisted on predict cache lines.

    Only evaluated predicts (bindings present, numeric cycles) are
    useful to ``repro surrogate train``; everything else stays aux-free
    so the JSONL file does not balloon.
    """
    if entry.kind != "predict" or result.get("cycles") is None:
        return None
    request = entry.request
    if not request.bindings:
        return None
    return {
        "source": request.source,
        "machine": request.machine,
        "backend": request.backend,
        "include_memory": request.include_memory,
        "bindings": {k: str(v) for k, v in request.bindings.items()},
    }


class _Pending(NamedTuple):
    """One cache-missed request awaiting execution."""

    index: int
    kind: str
    payload: dict[str, Any]
    key: str
    want_trace: bool
    request: Any


def _is_heavy(entry: _Pending) -> bool:
    """Weight class: does this request deserve a pool task of its own?"""
    if entry.kind == "kernels":
        return True
    if entry.kind == "restructure":
        request = entry.request
        return request.depth * request.max_nodes >= _SPLIT_THRESHOLD
    return False


# ----------------------------------------------------------------------


class PredictionEngine:
    """Serve prediction requests with batching, caching, and workers.

    ``workers <= 1`` executes inline (no pool) -- the right mode for
    the CLI and for tests.  ``executor`` may force ``"process"``,
    ``"thread"``, or ``"sync"``; the default ``"auto"`` picks processes
    and falls back to threads if the pool cannot be used.

    ``scheduling`` picks how a batch maps onto pool tasks:
    ``"weighted"`` (default) groups light requests into shared chunks
    and splits heavy restructures into per-round subtasks capped at
    ``workers - 1`` slots; ``"naive"`` submits one task per request.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_size: int = 1024,
        cache_path: str | None = None,
        executor: str = "auto",
        metrics: MetricsRegistry | None = None,
        scheduling: str = "weighted",
        surrogate: Any = None,
    ):
        if executor not in ("auto", "process", "thread", "sync"):
            raise ValueError(f"unknown executor policy {executor!r}")
        if scheduling not in ("weighted", "naive"):
            raise ValueError(f"unknown scheduling policy {scheduling!r}")
        self.workers = max(0, workers)
        self.scheduling = scheduling
        self.cache = ResultCache(maxsize=cache_size, path=cache_path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Learned fast tier (repro.learn.Surrogate) or None.  Serves
        #: fidelity=fast/auto predicts ahead of the cache and harvests
        #: every exact predict as a training sample.
        self.surrogate = surrogate
        if surrogate is not None:
            surrogate.bind_metrics(self.metrics)
        self._executor_policy = executor
        self._pool: Executor | None = None
        self._pool_kind = "sync"
        self._pool_guard = threading.Lock()
        self._requests = self.metrics.counter(
            "repro_engine_requests_total",
            "Engine requests by kind and outcome.")
        self._latency = self.metrics.histogram(
            "repro_engine_request_seconds",
            "Engine request latency by kind (batch arrival to response).")
        self._cache_lookups = self.metrics.counter(
            "repro_cache_requests_total",
            "Result-cache lookups by endpoint and result.")
        self._cache_evicted = self.metrics.counter(
            "repro_cache_endpoint_evictions_total",
            "Result-cache evictions by endpoint.")
        self._evicted_age = self.metrics.histogram(
            "repro_cache_evicted_age_seconds",
            "Age of result-cache entries at eviction.",
            buckets=CACHE_AGE_BUCKETS)
        self._tasks = self.metrics.counter(
            "repro_engine_tasks_total",
            "Worker-pool tasks submitted, by shape.")
        self._placement = self.metrics.counter(
            "repro_placement_cache_requests_total",
            "Placement-memo lookups by result (engine + process workers).")
        self._placement_guard = threading.Lock()
        base = placement_cache_stats()
        self._placement_seen = (base["hits"], base["misses"])
        self.jobs = None   # JobManager once attach_jobs() is called
        #: Recent request traces by request id, behind /debug/trace.
        self.traces = TraceBuffer(capacity=64)

    # -- pool management ------------------------------------------------
    def start_workers(self) -> None:
        """Spawn the worker pool now instead of at the first batch.

        The server calls this *before* binding its listening socket:
        forked workers must not inherit the socket fd, or they keep
        the port bound (and black-hole connections) if the parent
        dies without a clean shutdown.
        """
        self._ensure_pool()

    def _ensure_pool(self) -> None:
        if self._pool is not None or self.workers <= 1:
            return
        policy = self._executor_policy
        if policy in ("auto", "process"):
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self._pool_kind = "process"
                return
            except (OSError, ValueError):
                if policy == "process":
                    raise
        if policy in ("auto", "thread", "process"):
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
            self._pool_kind = "thread"

    def _degrade_to_threads(self) -> None:
        with self._pool_guard:
            if self._pool_kind == "thread" and self._pool is not None:
                return          # another thread already degraded
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
            self._pool_kind = "thread"

    def close(self) -> None:
        if self.surrogate is not None:
            self.surrogate.close()
        if self.jobs is not None:
            self.jobs.close()
            self.jobs = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_kind = "sync"

    def __enter__(self) -> "PredictionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire-level API -------------------------------------------------
    def handle(self, kind: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        """One request dict in, one response dict out (never raises)."""
        return self.handle_batch([(kind, payload)])[0]

    def handle_batch(
        self,
        items: Sequence[tuple[str, Mapping[str, Any]]],
        on_result: Callable[[int, dict[str, Any]], None] | None = None,
    ) -> list[dict[str, Any]]:
        """Serve a mixed batch; order of responses matches the input.

        Cache hits are answered immediately; the misses run on the
        worker pool concurrently (inline when ``workers <= 1``).
        Identical misses (same cache key) within the batch execute
        once: the first becomes the representative, the rest are
        answered with copies when it finishes.  ``on_result`` fires
        once per item, as its response becomes final -- in completion
        order under weighted scheduling, so a caller can stream answers
        out while heavy work is still running.
        """
        started = time.perf_counter()
        results: list[dict[str, Any] | None] = [None] * len(items)
        pending: list[_Pending] = []
        # Within-batch dedup: cache key -> followers awaiting the
        # representative's result.  Trace-requesting duplicates are
        # never followers (each deserves its own honest trace).
        represented: set[str] = set()
        followers: dict[str, list[_Pending]] = {}

        def resolve(index: int, kind: str, result: dict[str, Any]) -> None:
            results[index] = result
            self._latency.observe(time.perf_counter() - started, kind=kind)
            if on_result is not None:
                on_result(index, result)

        for index, (kind, payload) in enumerate(items):
            try:
                request = request_from_dict(kind, payload)
            except _CLIENT_ERRORS as error:
                self._requests.inc(kind=kind, outcome="client_error")
                resolve(index, kind, error_envelope(error, status=400))
                continue
            want_trace = bool(getattr(request, "trace", False))
            # The learned fast tier answers *ahead of the cache*: a
            # cache key costs a parse, a surrogate hit costs a memo
            # lookup and a dot product.  A None means fall through to
            # the exact path below (and the exact answer becomes a
            # training sample in _finish).
            if (self.surrogate is not None and kind == "predict"
                    and request.fidelity in ("fast", "auto")):
                served = self.surrogate.serve(request)
                if served is not None:
                    if want_trace:
                        served["trace"] = _fast_path_trace(kind)
                    self._requests.inc(kind=kind, outcome="fast")
                    resolve(index, kind, served)
                    continue
            try:
                key = _cache_key(kind, request)
            except _CLIENT_ERRORS as error:
                self._requests.inc(kind=kind, outcome="client_error")
                resolve(index, kind, error_envelope(error, status=400))
                continue
            hit = self.cache.get(key)
            if hit is not None:
                with trace_span("engine.execute", kind=kind, cached=True):
                    served = dict(hit)
                    served["cached"] = True
                    if want_trace:
                        served["trace"] = _cache_hit_trace(kind)
                self._cache_lookups.inc(endpoint=kind, result="hit")
                self._requests.inc(kind=kind, outcome="cache_hit")
                resolve(index, kind, served)
                continue
            entry = _Pending(index, kind, dict(payload), key, want_trace,
                             request)
            if key in represented and not want_trace:
                self._cache_lookups.inc(endpoint=kind, result="deduplicated")
                followers.setdefault(key, []).append(entry)
                continue
            self._cache_lookups.inc(endpoint=kind, result="miss")
            represented.add(key)
            pending.append(entry)

        if pending:
            def finish(entry: _Pending, result: dict[str, Any]) -> None:
                self._finish(entry, result, resolve)
                for dup in followers.pop(entry.key, ()):
                    # ``result`` is the cache-bound copy: _finish popped
                    # any trace block, so followers stay trace-free.
                    self._requests.inc(kind=dup.kind, outcome="deduplicated")
                    resolve(dup.index, dup.kind, dict(result))

            self._run_pending(pending, finish)
            self._sync_local_placement()
        return results  # type: ignore[return-value]

    def _finish(self, entry: _Pending, result: dict[str, Any],
                resolve: Callable[[int, str, dict[str, Any]], None]) -> None:
        """Post-process one computed result (always on the batch thread)."""
        spans = result.pop("trace", None)
        if spans:
            tracer = current_tracer()
            if tracer is not None:
                tracer.ingest(spans)
        final = result
        if "error" in result:
            if result.get("status") == 400:
                outcome = "client_error"
            else:
                outcome = "error"
                log.error(
                    "request failed",
                    extra={"fields": {
                        "kind": entry.kind,
                        "error": result.get("error"),
                        "message": result.get("message"),
                    }},
                )
        else:
            evicted = self.cache.put(entry.key, result,
                                     aux=_predict_aux(entry, result))
            if evicted is not None:
                self._cache_evicted.inc(endpoint=evicted.endpoint)
                self._evicted_age.observe(
                    evicted.age, endpoint=evicted.endpoint)
            if (self.surrogate is not None and entry.kind == "predict"
                    and result.get("cycles") is not None):
                try:
                    from fractions import Fraction
                    self.surrogate.observe(
                        entry.request,
                        float(Fraction(str(result["cycles"]))))
                except (ValueError, ZeroDivisionError, OverflowError):
                    pass    # symbolic/non-finite cycles: not a sample
            outcome = "computed"
            if entry.want_trace and spans is not None:
                # Attach *after* cache.put so cached copies stay
                # trace-free (a replayed trace would be a lie).
                final = {**result, "trace": spans}
        self._requests.inc(kind=entry.kind, outcome=outcome)
        resolve(entry.index, entry.kind, final)

    # -- scheduling -----------------------------------------------------
    def _run_pending(
        self,
        pending: Sequence[_Pending],
        finish: Callable[[_Pending, dict[str, Any]], None],
    ) -> None:
        if self.workers <= 1 or not pending:
            return self._run_inline(pending, finish)
        self._ensure_pool()
        if self._pool is None:
            return self._run_inline(pending, finish)
        # Workers cannot see this process's active tracer; have them
        # collect spans locally whenever anyone is listening.  The
        # ambient trace context rides along so worker-side spans stay
        # in the serving request's trace.
        collect = (current_tracer() is not None
                   or any(entry.want_trace for entry in pending))
        ctx = _trace_ctx() if collect else None
        if self.scheduling == "naive":
            self._run_naive(pending, finish, collect, ctx)
        else:
            self._run_weighted(pending, finish, collect, ctx)

    def _run_inline(
        self,
        pending: Sequence[_Pending],
        finish: Callable[[_Pending, dict[str, Any]], None],
    ) -> None:
        for entry in pending:
            finish(entry, self._execute_inline(
                entry.kind, entry.payload, entry.want_trace))

    def _run_naive(
        self,
        pending: Sequence[_Pending],
        finish: Callable[[_Pending, dict[str, Any]], None],
        collect: bool,
        ctx: tuple[str, str | None] | None = None,
    ) -> None:
        """One pool task per request, awaited in submission order."""
        jobs = [(execute_request, (entry.kind, entry.payload, collect, ctx))
                for entry in pending]
        futures = [self._submit(fn, *args) for fn, args in jobs]
        for entry, future, job in zip(pending, futures, jobs):
            self._tasks.inc(shape="single")
            with trace_span("engine.execute", kind=entry.kind, cached=False):
                result = self._result_or_retry(future, job)
            finish(entry, result)

    def _run_weighted(
        self,
        pending: Sequence[_Pending],
        finish: Callable[[_Pending, dict[str, Any]], None],
        collect: bool,
        ctx: tuple[str, str | None] | None = None,
    ) -> None:
        """Weight-classed scheduling: chunked light work, split heavy work.

        Light chunks are submitted before any heavy subtask so a FIFO
        pool serves them first; each heavy restructure is driven from
        its own engine-side thread and may occupy at most
        ``workers - 1`` pool slots per round, so light traffic always
        has a free slot.  Results are finished on this thread, in
        completion order.
        """
        light = [entry for entry in pending if not _is_heavy(entry)]
        heavy = [entry for entry in pending if _is_heavy(entry)]
        waiters: dict[Any, tuple[str, Any, Any]] = {}

        if light:
            chunk_count = min(self.workers, max(1, len(light) // _GROUP_MIN))
            for group in _chunked(light, chunk_count):
                jobs = [(entry.kind, entry.payload) for entry in group]
                job = (execute_request_chunk, (jobs, collect, ctx))
                waiters[self._submit(*_flatten(job))] = ("chunk", group, job)
                self._tasks.inc(shape="chunk")
        singles = [entry for entry in heavy if entry.kind != "restructure"]
        splits = [entry for entry in heavy if entry.kind == "restructure"]
        for entry in singles:
            job = (execute_request, (entry.kind, entry.payload, collect, ctx))
            waiters[self._submit(*_flatten(job))] = ("single", entry, job)
            self._tasks.inc(shape="single")
        drivers: ThreadPoolExecutor | None = None
        if splits:
            drivers = ThreadPoolExecutor(
                max_workers=len(splits),
                thread_name_prefix="restructure-driver")
            for entry in splits:
                future = drivers.submit(
                    self._drive_restructure, entry, collect, ctx)
                waiters[future] = ("driver", entry, None)
                self._tasks.inc(shape="split")
        try:
            for future in as_completed(list(waiters)):
                shape, target, job = waiters[future]
                if shape == "chunk":
                    outcome = self._result_or_retry(future, job)
                    self._ingest_placement(outcome.get("placement"))
                    for entry, result in zip(target, outcome["results"]):
                        with trace_span("engine.execute", kind=entry.kind,
                                        cached=False):
                            finish(entry, result)
                elif shape == "single":
                    with trace_span("engine.execute", kind=target.kind,
                                    cached=False):
                        finish(target, self._result_or_retry(future, job))
                else:
                    with trace_span("engine.execute", kind=target.kind,
                                    cached=False):
                        finish(target, future.result())
        finally:
            if drivers is not None:
                drivers.shutdown(wait=True)

    def _drive_restructure(self, entry: _Pending, collect: bool,
                           ctx: tuple[str, str | None] | None = None,
                           ) -> dict[str, Any]:
        """Run one heavy restructure engine-side (in a driver thread).

        Mirrors :func:`execute_request` -- errors become envelopes,
        spans are collected under a request-local tracer -- but the A*
        round loop runs here and ships each round's candidate batch to
        the shared pool.
        """
        def run() -> dict[str, Any]:
            try:
                request = entry.request
                with trace_span("restructure", machine=request.machine):
                    response = self._restructure_split(request)
                return response_to_dict(response)
            except _CLIENT_ERRORS as error:
                return error_envelope(error, status=400)
            except Exception as error:  # noqa: BLE001 -- envelope it
                return error_envelope(error, status=500)

        if collect:
            tracer = (Tracer(trace_id=ctx[0], remote_parent_id=ctx[1])
                      if ctx else Tracer())
            with tracer.activate():
                result = run()
            result["trace"] = tracer.export()
            return result
        return run()

    def _restructure_split(
        self, request: RestructureRequest,
        *,
        on_round: Callable[[Any], Any] | None = None,
        resume_from: Any | None = None,
    ) -> RestructureResponse:
        """The split execution shape: pool-evaluated search rounds.

        Each round's fresh candidates go to the pool in at most
        ``workers - 1`` chunks, leaving one slot free for light
        chunks regardless of how long the search runs.  Pool failures
        degrade this search to inline evaluation (same results).
        """
        cap = max(1, self.workers - 1)
        program = parse_program(request.source)
        machine = get_machine(request.machine)
        root_key = ("search", stmts_digest(program.body),
                    machine.fingerprint())
        degraded = [False]

        def evaluate(programs: list) -> list:
            programs = list(programs)
            if not programs:
                return []
            if degraded[0] or self._pool is None:
                return evaluate_chunk(program, root_key, machine, programs)
            chunks = _chunked(
                programs, min(cap, max(1, len(programs) // _GROUP_MIN)))
            try:
                futures = [
                    self._submit(_search_round_chunk, program, root_key,
                                 machine, chunk)
                    for chunk in chunks
                ]
                costs: list = []
                for future in futures:
                    outcome = future.result()
                    self._ingest_placement(outcome.get("placement"))
                    costs.extend(outcome["costs"])
                self._tasks.inc(len(chunks), shape="search_round")
                return costs
            except (BrokenProcessPool, CancelledError, OSError,
                    pickle.PicklingError, TypeError, AttributeError):
                degraded[0] = True
                return evaluate_chunk(program, root_key, machine, programs)

        return _restructure_response(request, evaluate_batch=evaluate,
                                     on_round=on_round,
                                     resume_from=resume_from)

    # -- job execution --------------------------------------------------
    def run_restructure_job(
        self,
        request: RestructureRequest,
        *,
        on_round: Callable[[Any], Any] | None = None,
        resume_from: Any | None = None,
    ) -> dict[str, Any]:
        """Run one async job's search to completion (blocking).

        Called from a :class:`~repro.service.jobs.JobManager` runner
        thread, never from the HTTP batch path.  With a worker pool,
        each round's candidates are evaluated on at most ``workers - 1``
        pool slots (the same cap split restructures use), so N
        concurrent jobs still leave a slot free for light requests;
        without one, evaluation runs inline on the runner thread.
        Errors become envelopes, exactly like :func:`execute_request`.
        """
        try:
            with trace_span("restructure.job", machine=request.machine):
                if self.workers > 1:
                    self._ensure_pool()
                if self._pool is not None and self.workers > 1:
                    response = self._restructure_split(
                        request, on_round=on_round, resume_from=resume_from)
                else:
                    response = _restructure_response(
                        request, on_round=on_round, resume_from=resume_from)
            return response_to_dict(response)
        except _CLIENT_ERRORS as error:
            return error_envelope(error, status=400)
        except Exception as error:  # noqa: BLE001 -- envelope, keep the runner
            return error_envelope(error, status=500)

    def attach_jobs(self, store_root: str, *, slots: int | None = None,
                    stale_after: float = 5.0):
        """Enable the async job subsystem backed by ``store_root``.

        Point several shards at one shared directory to get
        resume-on-successor failover.  Returns the started
        :class:`~repro.service.jobs.JobManager` (also kept on
        ``self.jobs`` for the server's routes).
        """
        from .jobs import JobManager
        from .jobstore import JobStore

        if self.jobs is not None:
            return self.jobs
        self.jobs = JobManager(
            self, JobStore(store_root), slots=slots,
            stale_after=stale_after).start()
        return self.jobs

    # -- pool plumbing --------------------------------------------------
    def _submit(self, fn, *args):
        try:
            return self._pool.submit(fn, *args)
        except (BrokenProcessPool, OSError):
            self._degrade_to_threads()
            return self._pool.submit(fn, *args)

    def _result_or_retry(self, future, job):
        """Await a pool future; on a broken pool, degrade and re-run."""
        fn, args = job
        try:
            return future.result()
        except (BrokenProcessPool, CancelledError, OSError):
            self._degrade_to_threads()
            return self._pool.submit(fn, *args).result()

    @staticmethod
    def _execute_inline(kind: str, payload: dict[str, Any],
                        want_trace: bool) -> dict[str, Any]:
        # Without a trace block to build, spans flow straight into any
        # active tracer; with one, a request-local tracer collects them
        # (and handle_batch re-ingests, so nothing is lost either way).
        with trace_span("engine.execute", kind=kind, cached=False):
            return execute_request(
                kind, payload, collect_trace=want_trace,
                trace_context=_trace_ctx() if want_trace else None)

    # -- placement-memo telemetry --------------------------------------
    def _ingest_placement(self, delta: Mapping[str, int] | None) -> None:
        """Fold a worker task's placement-memo delta into the counter.

        Thread workers and inline execution hit *this* process's memo,
        which :meth:`_sync_local_placement` already counts; folding
        their deltas too would double-count, so only process workers
        report this way.
        """
        if not delta or self._pool_kind != "process":
            return
        hits = int(delta.get("hits", 0))
        misses = int(delta.get("misses", 0))
        if hits > 0:
            self._placement.inc(hits, result="hit")
        if misses > 0:
            self._placement.inc(misses, result="miss")

    def _sync_local_placement(self) -> None:
        """Count engine-process placement-memo activity since last sync."""
        stats = placement_cache_stats()
        with self._placement_guard:
            hits = stats["hits"] - self._placement_seen[0]
            misses = stats["misses"] - self._placement_seen[1]
            self._placement_seen = (stats["hits"], stats["misses"])
        if hits > 0:
            self._placement.inc(hits, result="hit")
        if misses > 0:
            self._placement.inc(misses, result="miss")

    # -- typed API ------------------------------------------------------
    def _typed(self, request: Any):
        kind = _KIND_BY_TYPE[type(request)]
        result = self.handle(kind, _request_to_dict(request))
        if "error" in result:
            raise ServiceError(result)
        return response_from_dict(kind, result)

    def predict(self, request: PredictRequest) -> PredictResponse:
        return self._typed(request)

    def compare(self, request: CompareRequest) -> CompareResponse:
        return self._typed(request)

    def restructure(self, request: RestructureRequest) -> RestructureResponse:
        return self._typed(request)

    def kernels(self, request: KernelsRequest) -> KernelsResponse:
        return self._typed(request)

    def sweep(self, request: SweepRequest) -> SweepResponse:
        return self._typed(request)

    def batch(self, requests: Sequence[Any]) -> list[Any]:
        """Typed batch: dataclass requests in, dataclass responses out.

        Failed entries come back as :class:`ServiceError` instances
        (not raised), so one bad request cannot void a whole batch.
        """
        kinds = [_KIND_BY_TYPE[type(r)] for r in requests]
        raw = self.handle_batch(
            [(kind, _request_to_dict(r)) for kind, r in zip(kinds, requests)]
        )
        out: list[Any] = []
        for kind, result in zip(kinds, raw):
            if "error" in result:
                out.append(ServiceError(result))
            else:
                out.append(response_from_dict(kind, result))
        return out

    # -- observability --------------------------------------------------
    def export_cache_metrics(self) -> None:
        """Refresh the cache gauges (called at /metrics scrape time)."""
        stats = self.cache.stats
        self.metrics.gauge(
            "repro_cache_hits_total", "Result-cache hits.").set(stats.hits)
        self.metrics.gauge(
            "repro_cache_misses_total", "Result-cache misses.").set(stats.misses)
        self.metrics.gauge(
            "repro_cache_evictions_total",
            "Result-cache evictions.").set(stats.evictions)
        self.metrics.gauge(
            "repro_cache_entries", "Resident result-cache entries.").set(
            len(self.cache))
        self.metrics.gauge(
            "repro_engine_workers", "Configured worker count.").set(self.workers)
        if self.surrogate is not None:
            self.surrogate.export_metrics()
        self._sync_local_placement()
        self.metrics.gauge(
            "repro_placement_cache_entries",
            "Resident placement-memo entries (engine process).").set(
            placement_cache_stats()["entries"])
        export_memo_metrics(self.metrics)
        from ..calib import calibration_stats
        from ..sweep import sweep_stats

        sweep = sweep_stats()
        self.metrics.gauge(
            "repro_sweep_runs_total",
            "Width sweeps evaluated (engine process).").set(sweep["sweeps"])
        self.metrics.gauge(
            "repro_sweep_widths_total",
            "Ladder points evaluated across all sweeps "
            "(engine process).").set(sweep["widths"])
        self.metrics.gauge(
            "repro_sweep_shared_translations_total",
            "Translations replayed from the sweep facade instead of "
            "re-translated (engine process).").set(
            sweep["shared_translations"])
        self.metrics.gauge(
            "repro_sweep_symbolic_hits_total",
            "Sweeps served from the memoized symbolic ladder "
            "(engine process).").set(sweep["symbolic_hits"])
        calib = calibration_stats()
        self.metrics.gauge(
            "repro_calib_runs_total",
            "Cost-table calibrations performed (engine process).").set(
            calib["calibrations"])
        self.metrics.gauge(
            "repro_calib_probes_total",
            "Probe streams measured across all calibrations "
            "(engine process).").set(calib["probes"])
        age_hist = self.metrics.histogram(
            "repro_cache_entry_age_seconds",
            "Ages of resident result-cache entries (snapshot per scrape).",
            buckets=CACHE_AGE_BUCKETS)
        age_hist.reset()  # snapshot of *current* residents, not cumulative
        for key, age in self.cache.entry_ages().items():
            age_hist.observe(age, endpoint=endpoint_of(key))


def _flatten(job: tuple) -> tuple:
    fn, args = job
    return (fn, *args)


def _request_to_dict(request: Any) -> dict[str, Any]:
    from dataclasses import asdict

    out = asdict(request)
    return {k: v for k, v in out.items() if v is not None}
