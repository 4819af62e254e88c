"""Shard router: one front door over N prediction backends.

A single :mod:`repro.service.server` process tops out at one machine's
cores and one process's caches.  The router is a stdlib HTTP process
that fronts N backend servers and forwards every request to the shard
that *owns* its program, so each backend's result cache, shared
predictors, and placement memos stay hot for a stable slice of the
digest space:

* **Sharding.**  Requests are keyed by the same canonical
  :func:`~repro.ir.digest.program_digest` the backends use for their
  caches (``compare`` keys on both digests, ``kernels`` on the machine
  name), mapped to a backend through a consistent-hash
  :class:`~repro.service.shard.HashRing` with virtual nodes --
  resharding from K to K±1 backends remaps only ~1/K of programs.
  The router memoizes source-text -> digest so routing costs one
  SHA-256 per request after first sight, not a parse.

* **Health.**  A daemon thread probes every backend's ``/healthz`` on
  an interval (active), and any connection-level forward failure marks
  the backend down immediately (passive); the next successful probe
  marks it back up.  Dead backends are skipped in ring order, which
  keeps every other key's owner unchanged.

* **Failover.**  A failed forward retries on the next live replica in
  ring preference order with exponential backoff, up to a bounded
  budget.  Responses that prove the backend is alive (2xx/4xx) are
  passed through; 5xx and transport failures fail over.

* **Degradation.**  With *every* backend down, the router answers
  inline from a local single-process engine rather than erroring, so
  a control-plane outage degrades to reduced throughput, not an
  outage.  The router never imports the predictor otherwise: the
  first degraded request pays that import (60-90 ms on a 2-vCPU
  container), and a router whose backends stay up never carries it.

Batches are split by owning shard and forwarded concurrently, then
reassembled in request order; entries that fail validation locally
never cost a network hop.

* **Jobs.**  Async restructure jobs route by *affinity*: a submit is
  keyed by the program digest (so the job runs where the program's
  caches live), and every later read keys on the digest prefix baked
  into the job id itself -- no parse needed.  Status and cancel
  forward like ordinary requests; the ``/events`` stream is *relayed*
  byte-for-byte as it arrives, and a shard that dies mid-stream simply
  ends the relay -- the client re-attaches with ``from_round`` and the
  failover walk lands it on the ring successor, which adopts and
  resumes the job from its checkpoint.  Jobs never degrade to the
  router's inline engine: the job state lives in the shards' shared
  store, which the router does not mount.

``/metrics`` exports ``repro_router_forwards_total{shard,outcome}``,
``repro_router_failovers_total``, ``repro_router_jobs_total{route}``,
per-shard ring-ownership and liveness gauges, digest-memo size and
eviction gauges, and HTTP latency histograms.

* **Observability.**  With ``tracing=True`` every request runs under a
  ``router.handle`` span, each forward attempt under a
  ``router.forward`` span, and outgoing hops carry a W3C
  ``traceparent`` header (plus ``X-Request-Id``) so the shard's spans
  join the router's trace.  Failed (5xx) and slowest requests are kept
  in a bounded :class:`~repro.obs.ExemplarRing`;
  ``GET /debug/trace/<request_id>`` stitches the exemplar's router
  spans with every live shard's spans for that request into one Chrome
  trace.  ``GET /metrics/cluster`` scrapes all live shards and merges
  their expositions with the router's own registry (samples gain a
  ``shard`` label); an optional :class:`~repro.obs.slo.SloTracker`
  (``--slo-config``) turns the request stream into burn-rate gauges.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import logging
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Any, Callable, Mapping, Sequence
from urllib.parse import parse_qs, urlparse

from ..ir.digest import program_digest
from ..ir.lexer import LexError
from ..ir.parser import ParseError, parse_program
from ..obs import (
    TRACEPARENT_HEADER,
    BoundedCache,
    ExemplarRing,
    Tracer,
    chrome_trace,
    configure_json_logging,
    current_context,
    format_traceparent,
    new_request_id,
    parse_traceparent,
    set_request_id,
    trace_span,
)
from ..obs.aggregate import merge_expositions
from .jobstore import JOBS_PREFIX, job_affinity_key, parse_job_path
from .metrics import MetricsRegistry, export_memo_metrics
from .pool import HTTPConnectionPool, split_base_url
from .protocol import ProtocolError, error_envelope, request_from_dict
from .shard import HashRing

__all__ = ["BackendState", "ShardRouter", "make_router", "run_router"]

log = logging.getLogger("repro.service.router")

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_BATCH = 256

_POST_ROUTES = {"/predict": "predict", "/compare": "compare",
                "/restructure": "restructure", "/sweep": "sweep"}

_DEBUG_TRACE_PREFIX = "/debug/trace/"

#: Failures that mean "this backend did not answer (usably)": refused or
#: reset connections, timeouts, and protocol-level garbage -- a dropped
#: connection mid-response surfaces as ``BadStatusLine``, a response cut
#: off mid-body as ``IncompleteRead``; both are HTTPException subclasses.
_CONNECT_ERRORS = (ConnectionError, TimeoutError, OSError,
                   http.client.HTTPException)


class _DigestMemo(BoundedCache[str, str]):
    """Bounded source-text -> program-digest LRU (``router_digest``).

    Routing must not re-parse a program on every request: after the
    first sight of a source text, the digest lookup is one SHA-256 of
    the raw text plus a memo hit.
    """

    def __init__(self, maxsize: int = 4096):
        super().__init__("router_digest", max(1, maxsize))

    def digest(self, source: str) -> str:
        text_key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        value = self.get(text_key)
        if value is None:
            value = program_digest(parse_program(source))
            self.put(text_key, value)
        return value


class BackendState:
    """Live view of one backend: address, pool, and health."""

    def __init__(self, url: str, *, pool_size: int, timeout: float):
        self.url = url
        host, port = split_base_url(url)
        self.host = host
        self.port = port
        self.pool = HTTPConnectionPool(host, port, size=pool_size,
                                       timeout=timeout)
        self._healthy = True          # optimistic until proven otherwise
        self._lock = threading.Lock()
        self.last_failure: float = 0.0
        self.consecutive_failures: int = 0

    @property
    def healthy(self) -> bool:
        with self._lock:
            return self._healthy

    def mark_failure(self) -> bool:
        """Record a transport failure; returns True on an up->down edge."""
        with self._lock:
            self.last_failure = time.time()
            self.consecutive_failures += 1
            was = self._healthy
            self._healthy = False
            return was

    def mark_success(self) -> bool:
        """Record a success; returns True on a down->up edge."""
        with self._lock:
            self.consecutive_failures = 0
            was = self._healthy
            self._healthy = True
            return not was

    def close(self) -> None:
        self.pool.close()


class _RouterHandler(BaseHTTPRequestHandler):
    server: "ShardRouter"
    protocol_version = "HTTP/1.1"
    timeout = 30  # close idle keep-alive connections

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.debug("%s -- %s", self.address_string(), format % args)

    # -- plumbing -------------------------------------------------------
    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(body, status, "application/json")

    def _send_bytes(self, body: bytes, status: int, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("empty request body")
        if length > _MAX_BODY_BYTES:
            raise ValueError(f"request body over {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        return json.loads(raw.decode("utf-8"))

    @contextlib.contextmanager
    def _request_scope(self):
        router = self.server
        request_id = ((self.headers.get("X-Request-Id") or "").strip()
                      or new_request_id())
        self._request_id = request_id
        self._last_status = 0
        token = set_request_id(request_id)
        tracer = None
        if router.tracing:
            remote = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
            tracer = Tracer(
                trace_id=remote.trace_id if remote else None,
                remote_parent_id=remote.span_id if remote else None)
        scope_start = time.perf_counter()
        try:
            if tracer is None:
                yield request_id
            else:
                with tracer.activate():
                    with trace_span("router.handle", method=self.command,
                                    path=self.path):
                        yield request_id
        finally:
            token.var.reset(token)
            if tracer is not None:
                router.exemplars.offer(
                    request_id, tracer.export(),
                    time.perf_counter() - scope_start,
                    failed=self._last_status >= 500)

    def _observe(self, endpoint: str, status: int, started: float) -> None:
        router = self.server
        self._last_status = status
        elapsed = time.perf_counter() - started
        router.http_requests.inc(endpoint=endpoint, status=str(status))
        router.http_latency.observe(elapsed, endpoint=endpoint)
        if router.slo is not None:
            router.slo.observe(endpoint, elapsed, error=status >= 500)

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        started = time.perf_counter()
        url = urlparse(self.path)
        with self._request_scope() as request_id:
            if url.path == "/healthz":
                self._send_json(self.server.health_report())
                self._observe("healthz", 200, started)
                return
            if url.path == "/metrics":
                self.server.export_ring_metrics()
                if self.server.slo is not None:
                    self.server.slo.export(self.server.metrics)
                text = self.server.metrics.render()
                self._send_bytes(text.encode("utf-8"), 200,
                                 "text/plain; version=0.0.4")
                self._observe("metrics", 200, started)
                return
            if url.path == "/metrics/cluster":
                text = self.server.cluster_metrics()
                self._send_bytes(text.encode("utf-8"), 200,
                                 "text/plain; version=0.0.4")
                self._observe("metrics_cluster", 200, started)
                return
            if url.path.startswith(_DEBUG_TRACE_PREFIX):
                self._handle_debug_trace(url, started)
                return
            if url.path == "/kernels":
                params = parse_qs(url.query)
                machine = params.get("machine", ["power"])[0]
                status, body = self.server.route_kernels(machine, request_id)
                self._send_bytes(body, status, "application/json")
                self._observe("kernels", status, started)
                return
            job = parse_job_path(url.path)
            if job is not None:
                job_id, is_events = job
                key = job_affinity_key(job_id)
                if is_events:
                    self.server.job_requests.inc(route="events")
                    status = self.server.relay_stream(
                        self, key, self.path, request_id)
                    self._observe("job_events", status, started)
                    return
                self.server.job_requests.inc(route="status")
                status = self._forward_job("GET", url.path, None, key,
                                           request_id)
                self._observe("job_status", status, started)
                return
            self._send_json(
                {"error": "NotFound", "message": f"no route {url.path}",
                 "status": 404}, 404)
            self._observe("unknown", 404, started)

    def _handle_debug_trace(self, url, started: float) -> None:
        """One stitched trace for a recent request: the router's own
        exemplar spans plus every live shard's spans for that id."""
        request_id = url.path[len(_DEBUG_TRACE_PREFIX):]
        spans = self.server.fetch_trace(request_id)
        if not spans:
            self._send_json(
                {"error": "NotFound",
                 "message": f"no trace for request {request_id!r}",
                 "status": 404}, 404)
            self._observe("debug_trace", 404, started)
            return
        params = parse_qs(url.query)
        if params.get("format", ["chrome"])[0] == "spans":
            self._send_json({"request_id": request_id, "spans": spans})
        else:
            self._send_json(chrome_trace(spans, process_name="repro"))
        self._observe("debug_trace", 200, started)

    def _forward_job(self, method: str, path: str, body: bytes | None,
                     key: str, request_id: str) -> int:
        """Forward a job request along the ring; jobs never run inline.

        The router has no job store, so with every replica down the
        honest answer is 503 -- the job is still resumable once a shard
        returns.
        """
        outcome = self.server._forward(key, method, path, body, request_id)
        if outcome is None:
            self._send_json(error_envelope(
                ConnectionError("no live backend shard"), status=503), 503)
            return 503
        status, payload = outcome
        self._send_bytes(payload, status, "application/json")
        return status

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        started = time.perf_counter()
        url = urlparse(self.path)
        kind = _POST_ROUTES.get(url.path)
        with self._request_scope() as request_id:
            if url.path == JOBS_PREFIX:
                self._handle_job_submit(started, request_id)
                return
            if kind is None:
                self._send_json(
                    {"error": "NotFound", "message": f"no route {url.path}",
                     "status": 404}, 404)
                self._observe("unknown", 404, started)
                return
            try:
                body = self._read_body()
            except (ValueError, json.JSONDecodeError) as error:
                self._send_json(error_envelope(error, status=400), 400)
                self._observe(kind, 400, started)
                return
            if isinstance(body, list):
                if len(body) > _MAX_BATCH:
                    envelope = error_envelope(
                        ValueError(f"batch over {_MAX_BATCH} requests"), 400)
                    self._send_json(envelope, 400)
                    self._observe(kind, 400, started)
                    return
                results = self.server.route_batch(kind, body, request_id)
                self._send_json(results, 200)
                self._observe(kind, 200, started)
                return
            result = self.server.route_single(kind, body, request_id)
            status = result.get("status", 200) if "error" in result else 200
            self._send_json(result, status)
            self._observe(kind, status, started)

    def _handle_job_submit(self, started: float, request_id: str) -> None:
        """Key the submit on the program digest so the job runs where
        the program's caches (and any prior checkpoint) live."""
        try:
            payload = self._read_body()
            request = request_from_dict("restructure_job", payload)
            key = self.server._digests.digest(request.source)
        except (ProtocolError, ParseError, LexError, ValueError,
                KeyError, json.JSONDecodeError) as error:
            self._send_json(error_envelope(error, status=400), 400)
            self._observe("job_submit", 400, started)
            return
        self.server.job_requests.inc(route="submit")
        body = json.dumps(payload).encode("utf-8")
        status = self._forward_job("POST", JOBS_PREFIX, body, key, request_id)
        self._observe("job_submit", status, started)

    def do_DELETE(self) -> None:  # noqa: N802 -- http.server API
        started = time.perf_counter()
        url = urlparse(self.path)
        with self._request_scope() as request_id:
            job = parse_job_path(url.path)
            if job is None or job[1]:
                self._send_json(
                    {"error": "NotFound", "message": f"no route {url.path}",
                     "status": 404}, 404)
                self._observe("unknown", 404, started)
                return
            job_id, _ = job
            self.server.job_requests.inc(route="cancel")
            status = self._forward_job(
                "DELETE", url.path, None, job_affinity_key(job_id),
                request_id)
            self._observe("job_cancel", status, started)


class ShardRouter(ThreadingMixIn, HTTPServer):
    """The router process: ring, health, failover, degradation.

    ``backends`` are base URLs (``http://host:port``).  ``retries``
    bounds how many *additional* replicas a failed forward may try;
    backoff between attempts is ``backoff * 2**attempt`` seconds.
    ``local_fallback`` controls degraded mode: when no backend is
    live, requests run on an inline single-process engine instead of
    failing.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        backends: Sequence[str],
        *,
        vnodes: int = 64,
        retries: int = 2,
        backoff: float = 0.05,
        forward_timeout: float = 30.0,
        probe_interval: float = 2.0,
        probe_timeout: float = 1.0,
        pool_size: int = 8,
        local_fallback: bool = True,
        digest_memo_size: int = 4096,
        metrics: MetricsRegistry | None = None,
        tracing: bool = False,
        trace_exemplars: int = 32,
        slo: Any = None,
    ):
        if not backends:
            raise ValueError("router needs at least one backend URL")
        super().__init__(address, _RouterHandler)
        self.backends: dict[str, BackendState] = {
            url: BackendState(url, pool_size=pool_size,
                              timeout=forward_timeout)
            for url in backends
        }
        if len(self.backends) != len(backends):
            raise ValueError("duplicate backend URLs")
        self.ring = HashRing(self.backends, vnodes=vnodes)
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.local_fallback = local_fallback
        self.tracing = tracing
        self.slo = slo
        self.exemplars = ExemplarRing(capacity=trace_exemplars)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._digests = _DigestMemo(maxsize=digest_memo_size)
        self._local_engine = None
        self._local_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._probe_thread: threading.Thread | None = None
        self._stop_probing = threading.Event()

        self.forwards = self.metrics.counter(
            "repro_router_forwards_total",
            "Forward attempts by shard and outcome.")
        self.failovers = self.metrics.counter(
            "repro_router_failovers_total",
            "Requests retried on another replica after a shard failed.")
        self.degraded = self.metrics.counter(
            "repro_router_degraded_total",
            "Requests served by the router's inline local engine.")
        self.http_requests = self.metrics.counter(
            "repro_router_http_requests_total",
            "Router HTTP requests by endpoint and status.")
        self.http_latency = self.metrics.histogram(
            "repro_router_http_request_seconds",
            "Router HTTP request latency by endpoint.")
        self.job_requests = self.metrics.counter(
            "repro_router_jobs_total",
            "Async-job requests handled by route.")

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "ShardRouter":
        self.start_probing()
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-router", daemon=True)
        self._thread.start()
        return self

    def start_probing(self) -> None:
        if self._probe_thread is not None:
            return
        self.probe_all()  # synchronous first pass: start with real state
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-router-probe", daemon=True)
        self._probe_thread.start()

    def stop(self) -> None:
        self._stop_probing.set()
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5)
            self._probe_thread = None
        for state in self.backends.values():
            state.close()
        with self._local_lock:
            engine, self._local_engine = self._local_engine, None
        if engine is not None:
            engine.close()

    # -- health ---------------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop_probing.wait(self.probe_interval):
            self.probe_all()

    def probe_all(self) -> None:
        for state in self.backends.values():
            self._probe_one(state)

    def _probe_one(self, state: BackendState) -> None:
        connection = http.client.HTTPConnection(
            state.host, state.port, timeout=self.probe_timeout)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            ok = response.status == 200
        except _CONNECT_ERRORS:
            ok = False
        finally:
            connection.close()
        if ok:
            if state.mark_success():
                log.info("backend up", extra={"fields": {"shard": state.url}})
        else:
            if state.mark_failure():
                log.warning("backend down",
                            extra={"fields": {"shard": state.url}})

    def health_report(self) -> dict[str, Any]:
        shards = {
            url: {"healthy": state.healthy,
                  "consecutive_failures": state.consecutive_failures}
            for url, state in self.backends.items()
        }
        live = sum(1 for s in shards.values() if s["healthy"])
        status = "ok" if live else ("degraded" if self.local_fallback
                                    else "down")
        return {"status": status, "role": "router",
                "live_backends": live, "backends": shards}

    # -- routing keys ---------------------------------------------------
    def _ring_key(self, kind: str, request: Any) -> str:
        """The shard key: digest(s) for programs, machine for kernels."""
        if kind in ("predict", "restructure", "sweep"):
            return self._digests.digest(request.source)
        if kind == "compare":
            # Both digests, so a given pair always compares on one shard
            # (its compare cache key contains both).
            return (self._digests.digest(request.first)
                    + self._digests.digest(request.second))
        if kind == "kernels":
            return f"kernels|{request.machine}"
        raise ProtocolError(f"unknown request kind {kind!r}")

    # -- forwarding -----------------------------------------------------
    def _hop_headers(self, request_id: str, *, json_body: bool = False,
                     traceparent: str | None = None) -> dict[str, str]:
        """Headers every outgoing hop carries: the request id (so the
        shard logs and deposits its trace under the *router's* id, not
        a fresh one) and, when tracing, the ``traceparent`` of the
        innermost open span.  ``traceparent`` is explicit for hops made
        from ad-hoc threads (batch groups) where no ambient context
        exists."""
        headers = {"X-Request-Id": request_id}
        if traceparent is None:
            context = current_context()
            if context is not None:
                traceparent = format_traceparent(context)
        if traceparent:
            headers[TRACEPARENT_HEADER] = traceparent
        if json_body:
            headers["Content-Type"] = "application/json"
        return headers

    def _forward_once(self, state: BackendState, method: str, path: str,
                      body: bytes | None, request_id: str,
                      traceparent: str | None = None) -> tuple[int, bytes]:
        headers = self._hop_headers(request_id, json_body=body is not None,
                                    traceparent=traceparent)
        status, _, payload = state.pool.request(method, path, body, headers)
        return status, payload

    def _forward(self, key: str, method: str, path: str,
                 body: bytes | None, request_id: str,
                 traceparent: str | None = None,
                 ) -> tuple[int, bytes] | None:
        """Forward to the owning shard, failing over along the ring.

        Returns ``(status, body)`` from the first backend that answers,
        or ``None`` when every live replica in the retry budget failed
        (the caller degrades to the local engine).  2xx and 4xx pass
        through -- a 4xx is a deterministic client error that would fail
        identically everywhere; 5xx and transport errors fail over.
        """
        candidates = list(self.ring.preference(
            key, alive=lambda node: self.backends[node].healthy))
        if not candidates:
            # Passive marks may lag reality (e.g. every backend just
            # restarted); fall back to ring order rather than giving up
            # before trying anyone.
            candidates = list(self.ring.preference(key))
        last_5xx: tuple[int, bytes] | None = None
        for attempt, node in enumerate(candidates[: self.retries + 1]):
            state = self.backends[node]
            if attempt:
                self.failovers.inc()
                if self.backoff:
                    time.sleep(min(self.backoff * (2 ** (attempt - 1)), 1.0))
            try:
                with trace_span("router.forward", shard=state.url,
                                method=method, path=path, attempt=attempt):
                    status, payload = self._forward_once(
                        state, method, path, body, request_id, traceparent)
            except _CONNECT_ERRORS as error:
                outcome = ("timeout" if isinstance(error, TimeoutError)
                           else "connection_error")
                self.forwards.inc(shard=state.url, outcome=outcome)
                if state.mark_failure():
                    log.warning("backend down", extra={"fields": {
                        "shard": state.url, "error": str(error)}})
                continue
            state.mark_success()
            if status >= 500:
                self.forwards.inc(shard=state.url, outcome="server_error")
                last_5xx = (status, payload)
                continue
            self.forwards.inc(
                shard=state.url,
                outcome="ok" if status < 400 else "client_error")
            return status, payload
        # Every replica either refused or 5xx'd.  A consistent 5xx is a
        # real (deterministic) failure; surface the last one rather than
        # recomputing locally and masking it.
        return last_5xx

    # -- streaming relay ------------------------------------------------
    def relay_stream(self, handler: _RouterHandler, key: str, path: str,
                     request_id: str) -> int:
        """Relay a streaming GET (job events) byte-for-byte to the client.

        Uses a dedicated connection per attempt (never the pooled ones:
        a stream holds its connection for the job's whole lifetime).
        Failures *before* the response headers fail over along the ring
        like any forward; a shard dying *mid-stream* just ends the relay
        -- replaying from another shard would duplicate rounds the
        client already consumed, and the client's ``from_round`` resume
        re-attaches (via this same walk) to the successor, whose read
        triggers adoption.
        """
        candidates = list(self.ring.preference(
            key, alive=lambda node: self.backends[node].healthy))
        if not candidates:
            candidates = list(self.ring.preference(key))
        for attempt, node in enumerate(candidates[: self.retries + 1]):
            state = self.backends[node]
            if attempt:
                self.failovers.inc()
                if self.backoff:
                    time.sleep(min(self.backoff * (2 ** (attempt - 1)), 1.0))
            connection = http.client.HTTPConnection(
                state.host, state.port, timeout=state.pool.timeout)
            try:
                connection.request("GET", path,
                                   headers=self._hop_headers(request_id))
                response = connection.getresponse()
            except _CONNECT_ERRORS as error:
                self.forwards.inc(shard=state.url, outcome="connection_error")
                if state.mark_failure():
                    log.warning("backend down", extra={"fields": {
                        "shard": state.url, "error": str(error)}})
                connection.close()
                continue
            state.mark_success()
            if response.status >= 500:
                self.forwards.inc(shard=state.url, outcome="server_error")
                with contextlib.suppress(Exception):
                    response.read()
                connection.close()
                continue
            if response.status != 200:
                # Deterministic client error (404, 400): pass through.
                self.forwards.inc(shard=state.url, outcome="client_error")
                body = response.read()
                connection.close()
                handler._send_bytes(
                    body, response.status,
                    response.headers.get("Content-Type", "application/json"))
                return response.status
            self.forwards.inc(shard=state.url, outcome="ok")
            handler.send_response(200)
            handler.send_header(
                "Content-Type",
                response.headers.get("Content-Type", "text/event-stream"))
            handler.send_header("Cache-Control", "no-cache")
            handler.send_header("Connection", "close")
            handler.send_header("X-Request-Id", request_id)
            handler.end_headers()
            handler.close_connection = True
            try:
                while True:
                    try:
                        chunk = response.read1(8192)
                    except _CONNECT_ERRORS:
                        # Shard died mid-stream: close toward the client
                        # too, so its from_round resume takes over.
                        if state.mark_failure():
                            log.warning("backend down mid-stream",
                                        extra={"fields": {
                                            "shard": state.url}})
                        break
                    if not chunk:
                        break
                    handler.wfile.write(chunk)
                    handler.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass   # client went away; nothing left to relay
            finally:
                connection.close()
            return 200
        envelope = error_envelope(
            ConnectionError("no live backend shard"), status=503)
        handler._send_json(envelope, 503)
        return 503

    # -- local degraded mode --------------------------------------------
    def _local(self):
        from .engine import PredictionEngine

        with self._local_lock:
            if self._local_engine is None:
                self._local_engine = PredictionEngine(
                    workers=0, cache_size=256, metrics=self.metrics)
            return self._local_engine

    def _serve_locally(self, kind: str,
                       payload: Mapping[str, Any]) -> dict[str, Any]:
        self.degraded.inc(kind=kind)
        log.warning("no live backend; serving inline",
                    extra={"fields": {"kind": kind}})
        return self._local().handle(kind, payload)

    # -- request entry points -------------------------------------------
    def _validated(self, kind: str, payload: Mapping[str, Any]):
        """Validate at the boundary; returns (request, key) or envelope."""
        request = request_from_dict(kind, payload)   # raises ProtocolError
        return request, self._ring_key(kind, request)

    def route_single(self, kind: str, payload: Any,
                     request_id: str,
                     traceparent: str | None = None) -> dict[str, Any]:
        try:
            _, key = self._validated(kind, payload)
        except (ProtocolError, ParseError, LexError, ValueError,
                KeyError) as error:
            return error_envelope(error, status=400)
        body = json.dumps(payload).encode("utf-8")
        outcome = self._forward(key, "POST", f"/{kind}", body, request_id,
                                traceparent)
        if outcome is None:
            if self.local_fallback:
                return self._serve_locally(kind, payload)
            return error_envelope(
                ConnectionError("no live backend shard"), status=503)
        status, response_body = outcome
        try:
            return json.loads(response_body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return error_envelope(
                ValueError(f"shard returned undecodable body "
                           f"(status {status})"), status=502)

    def route_kernels(self, machine: str,
                      request_id: str) -> tuple[int, bytes]:
        key = f"kernels|{machine}"
        outcome = self._forward(key, "GET", f"/kernels?machine={machine}",
                                None, request_id)
        if outcome is None:
            if self.local_fallback:
                result = self._serve_locally("kernels", {"machine": machine})
                status = (result.get("status", 200)
                          if "error" in result else 200)
                return status, json.dumps(result, sort_keys=True).encode()
            envelope = error_envelope(
                ConnectionError("no live backend shard"), status=503)
            return 503, json.dumps(envelope, sort_keys=True).encode()
        return outcome

    def route_batch(self, kind: str, items: Sequence[Any],
                    request_id: str) -> list[dict[str, Any]]:
        """Split a batch by owning shard; forward sub-batches concurrently.

        Each sub-batch forwards as one JSON-array POST to its shard --
        the shard's engine then runs it through its own batch scheduler.
        A sub-batch whose shard fails is re-routed item by item through
        the normal single-request failover path, so one dead backend
        costs its items a retry, never the whole batch.
        """
        # Batch groups forward from ad-hoc threads, where the handler's
        # contextvars (active tracer, current span) are invisible --
        # capture the trace context here, once, and hand it to every hop.
        context = current_context()
        traceparent = (format_traceparent(context)
                       if context is not None else None)
        results: list[dict[str, Any] | None] = [None] * len(items)
        groups: dict[str, list[int]] = {}
        keys: dict[int, str] = {}
        for index, payload in enumerate(items):
            try:
                _, key = self._validated(kind, payload)
            except (ProtocolError, ParseError, LexError, ValueError,
                    KeyError) as error:
                results[index] = error_envelope(error, status=400)
                continue
            except Exception as error:  # noqa: BLE001 -- envelope, keep batch
                results[index] = error_envelope(error, status=500)
                continue
            keys[index] = key
            owner = self._owner_or_none(key)
            groups.setdefault(owner or "", []).append(index)

        def run_group(owner: str, indexes: list[int]) -> None:
            sub = [items[i] for i in indexes]
            if owner:
                forwarded = self._forward_group(
                    owner, kind, sub, request_id, traceparent)
                if forwarded is not None:
                    for i, result in zip(indexes, forwarded):
                        results[i] = result
                    return
            # Shard gone (or nothing owned the keys): per-item failover.
            for i in indexes:
                results[i] = self.route_single(kind, items[i], request_id,
                                               traceparent)

        pending = [(owner, indexes) for owner, indexes in groups.items()]
        if len(pending) <= 1:
            for owner, indexes in pending:
                run_group(owner, indexes)
        else:
            threads = [
                threading.Thread(target=run_group, args=(owner, indexes))
                for owner, indexes in pending
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return [r if r is not None
                else error_envelope(RuntimeError("unrouted item"), 500)
                for r in results]

    def _owner_or_none(self, key: str) -> str | None:
        for node in self.ring.preference(
                key, alive=lambda n: self.backends[n].healthy):
            return node
        return None

    def _forward_group(self, owner: str, kind: str, sub: Sequence[Any],
                       request_id: str, traceparent: str | None = None,
                       ) -> list[dict[str, Any]] | None:
        state = self.backends[owner]
        body = json.dumps(list(sub)).encode("utf-8")
        try:
            status, payload = self._forward_once(
                state, "POST", f"/{kind}", body, request_id, traceparent)
        except _CONNECT_ERRORS:
            self.forwards.inc(shard=state.url, outcome="connection_error")
            if state.mark_failure():
                log.warning("backend down",
                            extra={"fields": {"shard": state.url}})
            self.failovers.inc()
            return None
        state.mark_success()
        if status >= 500:
            self.forwards.inc(shard=state.url, outcome="server_error")
            self.failovers.inc()
            return None
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.forwards.inc(shard=state.url, outcome="server_error")
            return None
        if not isinstance(decoded, list) or len(decoded) != len(sub):
            self.forwards.inc(shard=state.url, outcome="server_error")
            return None
        self.forwards.inc(shard=state.url, outcome="ok")
        return decoded

    # -- observability --------------------------------------------------
    def cluster_metrics(self) -> str:
        """Scrape every live shard's ``/metrics`` and merge the texts
        (plus the router's own registry, as ``shard="router"``) into one
        cluster exposition -- the body of ``GET /metrics/cluster``.

        Dead or unparseable shards are skipped, not fatal: the merged
        view should degrade exactly like the data plane does.
        """
        texts: dict[str, str] = {}
        for url, state in self.backends.items():
            if not state.healthy:
                continue
            try:
                status, _, payload = state.pool.request(
                    "GET", "/metrics", None, {})
            except _CONNECT_ERRORS:
                if state.mark_failure():
                    log.warning("backend down", extra={
                        "fields": {"shard": state.url}})
                continue
            state.mark_success()
            if status != 200:
                continue
            texts[url] = payload.decode("utf-8", "replace")
        self.export_ring_metrics()
        if self.slo is not None:
            self.slo.export(self.metrics)
        texts["router"] = self.metrics.render()
        return merge_expositions(texts)

    def fetch_trace(self, request_id: str) -> list[dict[str, Any]]:
        """Stitch one request's spans: the router's exemplar (if kept)
        plus every live shard's ``/debug/trace`` spans for that id,
        merged and ordered by wall-clock start."""
        spans: list[dict[str, Any]] = list(
            self.exemplars.get(request_id) or [])
        for url, state in self.backends.items():
            if not state.healthy:
                continue
            try:
                status, _, payload = state.pool.request(
                    "GET", f"/debug/trace/{request_id}?format=spans",
                    None, {})
            except _CONNECT_ERRORS:
                if state.mark_failure():
                    log.warning("backend down", extra={
                        "fields": {"shard": state.url}})
                continue
            state.mark_success()
            if status != 200:
                continue
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(decoded, dict):
                shard_spans = decoded.get("spans") or []
                for span in shard_spans:
                    if isinstance(span, dict):
                        span.setdefault("attrs", {}).setdefault("shard", url)
                        spans.append(span)
        spans.sort(key=lambda s: s.get("start", 0.0))
        return spans

    def export_ring_metrics(self) -> None:
        ownership = self.ring.ownership()
        own_gauge = self.metrics.gauge(
            "repro_router_ring_ownership",
            "Fraction of the digest keyspace each shard owns.")
        live_gauge = self.metrics.gauge(
            "repro_router_backend_up",
            "1 when the shard answers health probes, else 0.")
        for url, state in self.backends.items():
            own_gauge.set(ownership.get(url, 0.0), shard=url)
            live_gauge.set(1.0 if state.healthy else 0.0, shard=url)
        self.metrics.gauge(
            "repro_router_backends",
            "Configured backend count.").set(len(self.backends))
        self.metrics.gauge(
            "repro_router_digest_memo_entries",
            "Resident source->digest memo entries.").set(len(self._digests))
        self.metrics.gauge(
            "repro_router_digest_memo_evictions_total",
            "Memo entries evicted since start (LRU cap).",
        ).set(self._digests.evictions)
        self.metrics.gauge(
            "repro_router_digest_memo_size",
            "Configured digest-memo capacity.").set(self._digests.maxsize)
        self.metrics.gauge(
            "repro_router_trace_exemplars",
            "Exemplar traces retained (failed + slowest).",
        ).set(len(self.exemplars))
        export_memo_metrics(self.metrics)


def make_router(
    backends: Sequence[str],
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> ShardRouter:
    """Bind a router (``port=0`` picks an ephemeral port) without serving."""
    return ShardRouter((host, port), backends, **kwargs)


def run_router(
    backends: Sequence[str],
    host: str = "127.0.0.1",
    port: int = 8080,
    **kwargs: Any,
) -> None:
    """Blocking router loop with clean Ctrl-C/SIGTERM shutdown (CLI path)."""
    configure_json_logging()
    router = make_router(backends, host, port, **kwargs)
    router.start_probing()

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread
    log.info("routing on %s:%d", host, router.port)
    print(f"repro router listening on http://{host}:{router.port} "
          f"over {len(router.backends)} backend(s)", flush=True)
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        router.stop()
