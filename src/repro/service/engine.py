"""The prediction engine: batched, cached, inline request execution.

Requests (predict / compare / restructure / kernels / sweep) come in as
wire dicts or typed :mod:`protocol` dataclasses, singly or in batches.
The engine:

1. validates each request strictly at the boundary;
2. computes its content-addressed cache key (canonical program digest
   + machine + back-end capability flags + evaluation point) and
   answers hits without executing anything; identical misses within a
   batch execute once and fan back out;
3. runs each miss inline, on the calling thread, in batch order -- the
   cost model is cheap enough for a compiler to call inside its
   transformation search (paper section 3.2), and multi-core scale-out
   is separate processes (``repro route`` over ``repro serve`` shards);
4. stores fresh results back in the cache and reports counters and
   latencies to a :class:`~repro.service.metrics.MetricsRegistry`.

Every miss draws its :class:`IncrementalPredictor` from a bounded pool
(:func:`~repro.transform.incremental.shared_predictor`), so repeated
work on the same program -- other evaluation points, restructure
probes -- reuses the paper's section 3.3.1 affected-region cache
instead of re-aggregating from scratch.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from ..cost.placement import placement_cache_stats
from ..ir.digest import program_digest
from ..ir.lexer import LexError
from ..ir.nodes import Program
from ..ir.parser import ParseError, parse_program
from ..machine.registry import get_machine, machine_fingerprint
from ..obs import (
    TraceBuffer,
    Tracer,
    current_context,
    current_tracer,
    trace_span,
)
from ..symbolic.poly import PolyError
from ..transform.incremental import shared_predictor
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

__all__ = ["PredictionEngine", "ServiceError"]

#: Exceptions that mean "the client sent something invalid" (HTTP 400),
#: as opposed to an internal fault (HTTP 500).
_CLIENT_ERRORS = (ProtocolError, ParseError, LexError, PolyError, KeyError, ValueError)

log = logging.getLogger("repro.service.engine")

#: Cache entries live seconds to days; buckets for age telemetry.
CACHE_AGE_BUCKETS = (1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 21600.0, 86400.0)

class ServiceError(Exception):
    """A request failed; carries the wire error envelope."""

    def __init__(self, envelope: dict[str, Any]):
        super().__init__(envelope.get("message", "service error"))
        self.envelope = envelope


# ----------------------------------------------------------------------
# request execution

#: A request's programs with their digests, in field order: parsed
#: once, for the cache key, and handed on to the handler.
_Parsed = tuple[tuple[Program, str], ...]

#: The request fields that carry program source, per kind.
_SOURCE_FIELDS = {
    "predict": ("source",),
    "compare": ("first", "second"),
    "restructure": ("source",),
    "sweep": ("source",),
}


def _parse_sources(kind: str, request: Any) -> _Parsed:
    """Parse and digest every program ``request`` carries."""
    parsed = []
    for name in _SOURCE_FIELDS.get(kind, ()):
        program = parse_program(getattr(request, name))
        parsed.append((program, program_digest(program)))
    return tuple(parsed)


def _symbolic_cost(program: Program, digest: str, machine_name: str,
                   backend: str, include_memory: bool):
    """A parsed program's symbolic cost, via the shared predictor pool."""
    machine = get_machine(machine_name)
    # The fingerprint (memoized per registered factory) rides in the
    # key so recalibrating a machine under the same name retires the
    # old predictor instead of serving its stale table.
    predictor = shared_predictor(
        (digest, machine_name, machine_fingerprint(machine_name), backend,
         include_memory),
        machine, program, backend, include_memory,
    )
    return predictor.predict(program)


def _do_predict(request: PredictRequest, parsed: _Parsed) -> PredictResponse:
    (program, digest), = parsed
    cost = _symbolic_cost(program, digest, request.machine, request.backend,
                          request.include_memory)
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


def _do_compare(request: CompareRequest, parsed: _Parsed) -> CompareResponse:
    from ..compare.comparator import compare
    from ..compare.regions import region_report

    (first, digest_first), (second, digest_second) = parsed
    cost_first = _symbolic_cost(first, digest_first, request.machine,
                                "aggressive", False)
    cost_second = _symbolic_cost(second, digest_second, request.machine,
                                 "aggressive", False)
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
    parsed: _Parsed,
    *,
    on_round: Callable[[Any], Any] | None = None,
    resume_from: Any | None = None,
) -> RestructureResponse:
    """The restructure endpoint's body.

    ``on_round`` and ``resume_from`` thread straight into
    :func:`~repro.transform.search.astar_search` -- the job subsystem
    uses them for per-round checkpoints and cooperative cancellation.
    """
    from ..ir.printer import print_program
    from ..transform import astar_search

    (program, digest), = parsed
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


def _do_kernels(request: KernelsRequest, parsed: _Parsed) -> KernelsResponse:
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


def _do_sweep(request: SweepRequest, parsed: _Parsed) -> SweepResponse:
    from ..sweep import sweep_program

    from ..machine.registry import cached_machine

    (program, digest), = parsed
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
    "restructure": _restructure_response,
    "kernels": _do_kernels,
    "sweep": _do_sweep,
}


def _execute(kind: str, request: Any, parsed: _Parsed, collect_trace: bool,
             trace_context: tuple[str, str | None] | None,
             ) -> dict[str, Any]:
    """Run one decoded request on its parsed programs; never raises --
    errors become envelopes.

    With ``collect_trace``, the request runs under a fresh
    request-local tracer and the finished spans travel back in the
    result under ``"trace"`` -- the engine re-ingests them into any
    active tracer, so a traced request's spans are reported once
    either way.  ``trace_context`` is the caller's
    ``(trace_id, parent_span_id)``; seeding the request-local tracer
    with it keeps the spans in the serving request's trace.
    """
    if collect_trace:
        tracer = (Tracer(trace_id=trace_context[0],
                         remote_parent_id=trace_context[1])
                  if trace_context else Tracer())
        with tracer.activate():
            result = _execute_one(kind, request, parsed)
        result["trace"] = tracer.export()
        return result
    return _execute_one(kind, request, parsed)


def _lookup_trace(kind: str, **attrs: Any) -> list[dict[str, Any]]:
    """The trace block for a cache hit or a surrogate answer.

    Neither runs the pipeline, so replaying stored pipeline spans would
    report work that did not happen; the answer instead gets a single
    honest ``engine.execute`` span marking the lookup (joined to the
    serving request's trace when one is active).
    """
    ctx = current_context()
    tracer = (Tracer(trace_id=ctx.trace_id, remote_parent_id=ctx.span_id)
              if ctx is not None else Tracer())
    with tracer.activate():
        with trace_span("engine.execute", kind=kind, **attrs):
            pass
    return tracer.export()


def _trace_ctx() -> tuple[str, str | None] | None:
    """The ambient trace context as a (trace_id, parent) tuple."""
    ctx = current_context()
    if ctx is None:
        return None
    return (ctx.trace_id, ctx.span_id)


def _execute_one(kind: str, request: Any, parsed: _Parsed) -> dict[str, Any]:
    try:
        with trace_span(kind, machine=getattr(request, "machine", "")):
            return response_to_dict(_HANDLERS[kind](request, parsed))
    except _CLIENT_ERRORS as error:
        return error_envelope(error, status=400)
    except Exception as error:  # noqa: BLE001 -- envelope, keep serving
        return error_envelope(error, status=500)


# ----------------------------------------------------------------------
# cache keys (computed before anything executes)


def _canonical_mapping(raw: Mapping[str, Any] | None) -> str:
    if not raw:
        return "-"
    return ",".join(f"{k}={raw[k]}" for k in sorted(raw))


#: The registry memoizes per registered factory (``get_machine`` builds
#: a fresh Machine each call, so an object-identity memo here never
#: hit), which makes the fingerprint free on the hot path while still
#: recomputing when recalibration registers a retrained factory.
_machine_fingerprint = machine_fingerprint


def _cache_key(kind: str, request: Any, parsed: _Parsed) -> str:
    """Content-addressed key: program digests + everything that matters.

    ``fp`` is the machine's cost-table fingerprint: recalibrating a
    machine (``repro.machine.training``) changes the predicted numbers
    without changing the machine *name*, so persisted entries from the
    old table must stop matching.  ``parsed`` is the request's
    :func:`_parse_sources`.
    """
    fp = f"fp={_machine_fingerprint(request.machine)}"
    digests = [digest for _, digest in parsed]
    if kind == "predict":
        digest, = digests
        return "|".join((
            "predict", digest, request.machine, fp, request.backend,
            f"mem={int(request.include_memory)}",
            f"at={_canonical_mapping(request.bindings)}",
        ))
    if kind == "compare":
        first, second = digests
        return "|".join((
            "compare", first, second, request.machine, fp,
            f"dom={_canonical_mapping(request.domain)}",
        ))
    if kind == "restructure":
        digest, = digests
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
        digest, = digests
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
    key: str
    want_trace: bool
    request: Any
    parsed: _Parsed


# ----------------------------------------------------------------------


class PredictionEngine:
    """Serve prediction requests with batching and caching, inline.

    Every cache miss executes on the calling thread.  ``workers`` is
    accepted for compatibility and must be 0 or 1 (both mean inline);
    to use more cores, run several ``repro serve`` shards behind
    ``repro route``.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_size: int = 1024,
        cache_path: str | None = None,
        metrics: MetricsRegistry | None = None,
        surrogate: Any = None,
    ):
        if workers not in (0, 1):
            raise ValueError(
                f"workers must be 0 or 1 (both run requests inline), got "
                f"{workers}; to use more cores, run several 'repro serve' "
                f"shards behind 'repro route'")
        self.cache = ResultCache(maxsize=cache_size, path=cache_path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Learned fast tier (repro.learn.Surrogate) or None.  Serves
        #: fidelity=fast/auto predicts ahead of the cache and harvests
        #: every exact predict as a training sample.
        self.surrogate = surrogate
        if surrogate is not None:
            surrogate.bind_metrics(self.metrics)
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
        self._placement = self.metrics.counter(
            "repro_placement_cache_requests_total",
            "Placement-memo lookups by result (engine process).")
        self._placement_guard = threading.Lock()
        base = placement_cache_stats()
        self._placement_seen = (base["hits"], base["misses"])
        self.jobs = None   # JobManager once attach_jobs() is called
        #: Recent request traces by request id, behind /debug/trace.
        self.traces = TraceBuffer(capacity=64)

    def close(self) -> None:
        if self.surrogate is not None:
            self.surrogate.close()
        if self.jobs is not None:
            self.jobs.close()
            self.jobs = None

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
    ) -> list[dict[str, Any]]:
        """Serve a mixed batch; order of responses matches the input.

        Cache hits are answered immediately; the misses then run inline,
        in input order.  Identical misses (same cache key) within the
        batch execute once: the first becomes the representative, the
        rest are answered with copies when it finishes.
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
                        served["trace"] = _lookup_trace(kind, fidelity="fast")
                    self._requests.inc(kind=kind, outcome="fast")
                    resolve(index, kind, served)
                    continue
            try:
                parsed = _parse_sources(kind, request)
                key = _cache_key(kind, request, parsed)
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
                        served["trace"] = _lookup_trace(kind, cached=True)
                self._cache_lookups.inc(endpoint=kind, result="hit")
                self._requests.inc(kind=kind, outcome="cache_hit")
                resolve(index, kind, served)
                continue
            entry = _Pending(index, kind, key, want_trace, request, parsed)
            if key in represented and not want_trace:
                self._cache_lookups.inc(endpoint=kind, result="deduplicated")
                followers.setdefault(key, []).append(entry)
                continue
            self._cache_lookups.inc(endpoint=kind, result="miss")
            represented.add(key)
            pending.append(entry)

        for entry in pending:
            # Without a trace block to build, spans flow straight into
            # any active tracer; with one, a request-local tracer
            # collects them (and _finish re-ingests, so nothing is lost
            # either way).
            with trace_span("engine.execute", kind=entry.kind, cached=False):
                result = _execute(
                    entry.kind, entry.request, entry.parsed, entry.want_trace,
                    _trace_ctx() if entry.want_trace else None)
            resolve(entry.index, entry.kind, self._finish(entry, result))
            for dup in followers.pop(entry.key, ()):
                # ``result`` is the cache-bound copy: _finish popped any
                # trace block, so followers stay trace-free.
                self._requests.inc(kind=dup.kind, outcome="deduplicated")
                resolve(dup.index, dup.kind, dict(result))
        if pending:
            self._sync_local_placement()
        return results  # type: ignore[return-value]

    def _finish(self, entry: _Pending,
                result: dict[str, Any]) -> dict[str, Any]:
        """Post-process one computed result; returns the response."""
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
            self.cache_result(entry.key, result,
                              aux=_predict_aux(entry, result))
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
                # Attach *after* caching so cached copies stay
                # trace-free (a replayed trace would be a lie).
                final = {**result, "trace": spans}
        self._requests.inc(kind=entry.kind, outcome=outcome)
        return final

    def cache_result(self, key: str, result: Mapping[str, Any],
                     aux: Mapping[str, Any] | None = None) -> None:
        """Store a computed answer, counting the entry it evicts."""
        evicted = self.cache.put(key, result, aux=aux)
        if evicted is not None:
            self._cache_evicted.inc(endpoint=evicted.endpoint)
            self._evicted_age.observe(evicted.age, endpoint=evicted.endpoint)

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
        thread, never from the HTTP batch path.  Errors become
        envelopes, exactly like :func:`execute_request`.
        """
        try:
            with trace_span("restructure.job", machine=request.machine):
                response = _restructure_response(
                    request, _parse_sources("restructure", request),
                    on_round=on_round, resume_from=resume_from)
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

    # -- placement-memo telemetry --------------------------------------
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


def _request_to_dict(request: Any) -> dict[str, Any]:
    from dataclasses import asdict

    out = asdict(request)
    return {k: v for k, v in out.items() if v is not None}
