"""Dependency-free HTTP/JSON front end for the prediction engine.

Built on :mod:`http.server` with ``ThreadingMixIn`` so each connection
gets a thread, on which the engine runs that connection's requests.

Routes
------
``POST /predict``      one :class:`PredictRequest` object, or a JSON
                       array of them (a batch -> array of responses)
``POST /compare``      symbolic comparison of two programs
``POST /restructure``  A*-guided restructuring
``GET  /kernels``      the Figure 7 table (``?machine=power``)
``GET  /healthz``      liveness probe
``GET  /metrics``      Prometheus text format

Async jobs (when the engine has a job manager attached):

``POST   /restructure/jobs``              submit; returns the job id
                                          immediately
``GET    /restructure/jobs/<id>``         status / progress / result
``GET    /restructure/jobs/<id>/events``  stream best-so-far candidates
                                          per beam round as Server-Sent
                                          Events (``?format=ndjson`` for
                                          a chunked JSON-lines fallback,
                                          ``?from_round=K`` to resume a
                                          dropped stream without
                                          replaying rounds <= K)
``DELETE /restructure/jobs/<id>``         cancel cooperatively at the
                                          next round boundary

Error responses -- including 405s for wrong methods and every error the
stdlib handler machinery itself raises -- use the protocol's uniform
JSON envelope ``{"error": "...", "message": "...", "status": 400}``,
never the stdlib HTML error page.
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..obs import (
    TRACEPARENT_HEADER,
    Tracer,
    chrome_trace,
    configure_json_logging,
    new_request_id,
    parse_traceparent,
    render_tree,
    set_request_id,
    trace_span,
)
from .engine import PredictionEngine
from .jobstore import JOBS_PREFIX as _JOBS_PREFIX
from .jobstore import parse_job_path
from .protocol import error_envelope

__all__ = ["PredictionServer", "make_server", "run_server"]

log = logging.getLogger("repro.service")

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_BATCH = 256

_POST_ROUTES = {"/predict": "predict", "/compare": "compare",
                "/restructure": "restructure", "/sweep": "sweep"}
_GET_PATHS = ("/healthz", "/metrics", "/kernels")

#: Route prefix for recent-trace retrieval (shared with the router).
_DEBUG_TRACE_PREFIX = "/debug/trace/"

#: How often the events stream re-reads the store while a job runs.
_EVENT_POLL_SECONDS = 0.05
#: How long a terminal job may go without its final event line before
#: the stream synthesizes one (covers the status-write/event-append gap).
_FINAL_EVENT_GRACE = 2.0


class _Handler(BaseHTTPRequestHandler):
    server: "PredictionServer"
    protocol_version = "HTTP/1.1"
    # Close keep-alive connections idle this long: each open connection
    # pins a handler thread, and a client that vanished without FIN
    # (killed test, dropped router) would otherwise pin it forever.
    timeout = 30

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.debug("%s -- %s", self.address_string(), format % args)

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

    @contextlib.contextmanager
    def _request_scope(self, endpoint: str):
        """Per-request observability: id binding, tracing, slow-log.

        Binds the request id (honoring a client-sent ``X-Request-Id``)
        for every log line emitted while handling, runs the handler
        under a request-local tracer whose spans feed the phase
        histograms, and dumps the span tree to the log when the request
        exceeds the server's slow threshold.

        An incoming ``traceparent`` header (the router sends one on
        every forwarded hop) seeds the tracer, so this process's spans
        join the caller's trace instead of starting a fresh one.
        Finished spans are deposited in the engine's trace buffer under
        the request id, backing ``GET /debug/trace/<request_id>``.
        """
        server = self.server
        request_id = ((self.headers.get("X-Request-Id") or "").strip()
                      or new_request_id())
        self._request_id = request_id
        token = set_request_id(request_id)
        started = time.perf_counter()
        tracer = None
        if server.tracing:
            remote = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
            tracer = Tracer(
                metrics=server.engine.metrics,
                trace_id=remote.trace_id if remote else None,
                remote_parent_id=remote.span_id if remote else None)
        try:
            if tracer is not None:
                with tracer.activate(), trace_span(
                        "server.handle", endpoint=endpoint,
                        request_id=request_id):
                    yield
            else:
                yield
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                server.engine.traces.put(request_id, tracer.export())
            if elapsed >= server.slow_request_seconds:
                fields: dict[str, Any] = {
                    "endpoint": endpoint,
                    "seconds": round(elapsed, 6),
                }
                if tracer is not None:
                    fields["span_tree"] = render_tree(tracer.export())
                log.warning("slow request", extra={"fields": fields})
            token.var.reset(token)

    def _observe(self, endpoint: str, status: int, started: float) -> None:
        elapsed = time.perf_counter() - started
        metrics = self.server.engine.metrics
        metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status.",
        ).inc(endpoint=endpoint, status=str(status))
        metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by endpoint.",
        ).observe(elapsed, endpoint=endpoint)
        if self.server.slo is not None:
            self.server.slo.observe(endpoint, elapsed, error=status >= 500)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("empty request body")
        if length > _MAX_BODY_BYTES:
            raise ValueError(f"request body over {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        return json.loads(raw.decode("utf-8"))

    def send_error(self, code: int, message: str | None = None,  # noqa: A002
                   explain: str | None = None) -> None:
        """JSON envelope for errors raised by the handler machinery.

        The stdlib implementation emits an HTML page; every error this
        server produces -- including 501s for unsupported methods and
        400s for malformed request lines -- must be the same JSON
        envelope the routes use.
        """
        try:
            short, long_desc = self.responses[code]
        except (KeyError, ValueError):
            short, long_desc = "Error", ""
        body = json.dumps({
            "error": short.replace(" ", ""),
            "message": message or explain or long_desc or short,
            "status": code,
        }, sort_keys=True).encode("utf-8")
        self.send_response(code, short)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        if self.command != "HEAD" and code >= 200 and code not in (204, 304):
            with contextlib.suppress(OSError):
                self.wfile.write(body)

    def _method_not_allowed(self, allow: str, started: float) -> None:
        path = urlparse(self.path).path
        body = json.dumps({
            "error": "MethodNotAllowed",
            "message": f"{self.command} not allowed on {path}; "
                       f"allowed: {allow}",
            "status": 405,
        }, sort_keys=True).encode("utf-8")
        self.send_response(405)
        self.send_header("Content-Type", "application/json")
        self.send_header("Allow", allow)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._observe("method_not_allowed", 405, started)

    # Shared with the router, which must parse the same job URLs.
    _job_route = staticmethod(parse_job_path)

    def _jobs_or_none(self):
        return self.server.engine.jobs

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._handle_get()

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._handle_post()

    def do_DELETE(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._handle_delete()

    def do_PUT(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._reject_method()

    def do_PATCH(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._reject_method()

    def do_HEAD(self) -> None:  # noqa: N802 -- http.server API
        with self._request_scope(urlparse(self.path).path):
            self._reject_method()

    def _reject_method(self) -> None:
        """Known path, wrong verb -> 405 + Allow; unknown path -> 404."""
        started = time.perf_counter()
        path = urlparse(self.path).path
        allow = self._allowed_methods(path)
        if allow:
            self._method_not_allowed(allow, started)
            return
        self._send_json(
            {"error": "NotFound", "message": f"no route {path}",
             "status": 404}, 404)
        self._observe("unknown", 404, started)

    @staticmethod
    def _allowed_methods(path: str) -> str | None:
        if path in _POST_ROUTES or path == _JOBS_PREFIX:
            return "POST"
        if path in _GET_PATHS or path.startswith(_DEBUG_TRACE_PREFIX):
            return "GET"
        route = _Handler._job_route(path)
        if route is not None:
            return "GET" if route[1] else "GET, DELETE"
        return None

    def _handle_get(self) -> None:
        started = time.perf_counter()
        url = urlparse(self.path)
        if url.path == "/healthz":
            health: dict[str, Any] = {"status": "ok"}
            if self.server.shard_of:
                health["shard"] = self.server.shard_of
            if self.server.engine.surrogate is not None:
                health["surrogate"] = self.server.engine.surrogate.stats()
            self._send_json(health)
            self._observe("healthz", 200, started)
            return
        if url.path == "/metrics":
            engine = self.server.engine
            engine.export_cache_metrics()
            if engine.jobs is not None:
                engine.jobs.export_metrics()
            if self.server.slo is not None:
                self.server.slo.export(engine.metrics)
            text = engine.metrics.render()
            self._send_bytes(text.encode("utf-8"), 200,
                             "text/plain; version=0.0.4")
            self._observe("metrics", 200, started)
            return
        if url.path.startswith(_DEBUG_TRACE_PREFIX):
            self._handle_debug_trace(url, started)
            return
        if url.path == "/kernels":
            params = parse_qs(url.query)
            machine = params.get("machine", ["power"])[0]
            result = self.server.engine.handle("kernels", {"machine": machine})
            status = result.get("status", 200) if "error" in result else 200
            self._send_json(result, status)
            self._observe("kernels", status, started)
            return
        route = self._job_route(url.path)
        if route is not None:
            job_id, is_events = route
            if is_events:
                self._handle_job_events(job_id, url.query, started)
            else:
                self._handle_job_status(job_id, started)
            return
        self._reject_method()

    def _handle_debug_trace(self, url, started: float) -> None:
        """Serve a recently deposited trace by request id.

        ``?format=chrome`` (default) returns a Chrome ``trace_event``
        document ready for ``chrome://tracing`` / Perfetto;
        ``?format=spans`` returns the raw span dicts -- the shape the
        router stitches into its own cluster-wide view.
        """
        request_id = url.path[len(_DEBUG_TRACE_PREFIX):].strip("/")
        spans = self.server.engine.traces.get(request_id)
        if not request_id or not spans:
            self._send_json(
                {"error": "NotFound",
                 "message": f"no retained trace for request "
                            f"{request_id or '<empty>'}",
                 "status": 404}, 404)
            self._observe("debug_trace", 404, started)
            return
        fmt = parse_qs(url.query).get("format", ["chrome"])[0]
        if fmt == "spans":
            self._send_json({"request_id": request_id, "spans": spans}, 200)
        else:
            self._send_json(chrome_trace(spans, process_name="repro"), 200)
        self._observe("debug_trace", 200, started)

    # -- job routes -----------------------------------------------------
    def _jobs_unavailable(self, endpoint: str, started: float) -> None:
        self._send_json(
            {"error": "JobsUnavailable",
             "message": "job subsystem not enabled; start the server "
                        "with --job-store",
             "status": 503}, 503)
        self._observe(endpoint, 503, started)

    def _handle_job_submit(self, started: float) -> None:
        from .jobs import public_view

        jobs = self._jobs_or_none()
        if jobs is None:
            self._jobs_unavailable("job_submit", started)
            return
        try:
            body = self._read_body()
            record = jobs.submit(body)
        except Exception as error:  # noqa: BLE001 -- boundary envelope
            envelope = error_envelope(error, status=400)
            self._send_json(envelope, 400)
            self._observe("job_submit", 400, started)
            return
        self._send_json(public_view(record), 202)
        self._observe("job_submit", 202, started)

    def _handle_job_status(self, job_id: str, started: float) -> None:
        from .jobs import public_view

        jobs = self._jobs_or_none()
        if jobs is None:
            self._jobs_unavailable("job_status", started)
            return
        record = jobs.status(job_id)
        if record is None:
            self._send_json(
                {"error": "NotFound", "message": f"no job {job_id}",
                 "status": 404}, 404)
            self._observe("job_status", 404, started)
            return
        self._send_json(public_view(record), 200)
        self._observe("job_status", 200, started)

    def _handle_delete(self) -> None:
        from .jobs import public_view

        started = time.perf_counter()
        url = urlparse(self.path)
        route = self._job_route(url.path)
        if route is None or route[1]:
            self._reject_method()
            return
        job_id = route[0]
        jobs = self._jobs_or_none()
        if jobs is None:
            self._jobs_unavailable("job_cancel", started)
            return
        record = jobs.cancel(job_id)
        if record is None:
            self._send_json(
                {"error": "NotFound", "message": f"no job {job_id}",
                 "status": 404}, 404)
            self._observe("job_cancel", 404, started)
            return
        self._send_json(public_view(record), 200)
        self._observe("job_cancel", 200, started)

    def _handle_job_events(self, job_id: str, query: str,
                           started: float) -> None:
        from .jobs import TERMINAL_STATUSES

        jobs = self._jobs_or_none()
        if jobs is None:
            self._jobs_unavailable("job_events", started)
            return
        params = parse_qs(query)
        try:
            from_round = int(params.get("from_round", ["0"])[0])
        except ValueError:
            self._send_json(error_envelope(
                ValueError("from_round must be an integer"), 400), 400)
            self._observe("job_events", 400, started)
            return
        sse = params.get("format", ["sse"])[0] != "ndjson"
        record = jobs.status(job_id)   # adoption hook: may resume the job
        if record is None:
            self._send_json(
                {"error": "NotFound", "message": f"no job {job_id}",
                 "status": 404}, 404)
            self._observe("job_events", 404, started)
            return

        # The stream has no Content-Length; it ends when the final
        # event is written and the connection closes (ndjson mode uses
        # chunked framing instead, for keep-alive-minded consumers).
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/event-stream" if sse
                         else "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        if sse:
            self.send_header("Connection", "close")
        else:
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        last = from_round
        final_deadline: float | None = None
        try:
            while True:
                done = False
                for event in jobs.events(job_id, from_round=last):
                    if event.get("final"):
                        self._write_frame(event, sse)
                        done = True
                        break
                    last = max(last, int(event.get("round", 0)))
                    self._write_frame(event, sse)
                if done:
                    break
                record = jobs.store.get(job_id)
                if record is None:
                    break   # deleted underneath us; EOF ends the stream
                if record.get("status") in TERMINAL_STATUSES:
                    # Terminal record but no final event line yet: give
                    # the writer a moment, then synthesize one.
                    now = time.monotonic()
                    if final_deadline is None:
                        final_deadline = now + _FINAL_EVENT_GRACE
                    elif now > final_deadline:
                        self._write_frame(
                            {"job_id": job_id, "final": True,
                             "status": record.get("status"),
                             "round": record.get("rounds", 0)}, sse)
                        break
                time.sleep(_EVENT_POLL_SECONDS)
            if not sse:
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass   # client went away mid-stream; nothing to answer
        self._observe("job_events", 200, started)

    def _write_frame(self, event: dict[str, Any], sse: bool) -> None:
        data = json.dumps(event, sort_keys=True)
        if sse:
            name = "done" if event.get("final") else "round"
            frame = (f"id: {event.get('round', 0)}\n"
                     f"event: {name}\ndata: {data}\n\n").encode("utf-8")
            self.wfile.write(frame)
        else:
            line = (data + "\n").encode("utf-8")
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii")
                             + line + b"\r\n")
        self.wfile.flush()

    def _handle_post(self) -> None:
        started = time.perf_counter()
        url = urlparse(self.path)
        if url.path == _JOBS_PREFIX:
            self._handle_job_submit(started)
            return
        if self._job_route(url.path) is not None:
            self._reject_method()
            return
        kind = _POST_ROUTES.get(url.path)
        if kind is None:
            self._reject_method()
            return
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(error_envelope(error, status=400), 400)
            self._observe(kind, 400, started)
            return

        engine = self.server.engine
        if isinstance(body, list):
            if len(body) > _MAX_BATCH:
                envelope = error_envelope(
                    ValueError(f"batch over {_MAX_BATCH} requests"), 400)
                self._send_json(envelope, 400)
                self._observe(kind, 400, started)
                return
            results = engine.handle_batch([(kind, item) for item in body])
            self._send_json(results, 200)
            self._observe(kind, 200, started)
            return

        result = engine.handle(kind, body)
        status = result.get("status", 200) if "error" in result else 200
        self._send_json(result, status)
        self._observe(kind, status, started)


class PredictionServer(ThreadingMixIn, HTTPServer):
    """A threaded HTTP server bound to one :class:`PredictionEngine`.

    ``shard_of`` is an optional ``"index/count"`` identity label for
    sharded deployments; it shows up in ``/healthz`` and on a metrics
    gauge so the router (and operators) can tell shards apart.
    """

    daemon_threads = True
    # SO_REUSEADDR: a restarted (or re-run test) server must be able to
    # rebind a port whose previous owner's sockets are in TIME_WAIT.
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: PredictionEngine,
        *,
        tracing: bool = True,
        slow_request_seconds: float = 1.0,
        shard_of: str | None = None,
        slo: Any = None,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.tracing = tracing
        self.slow_request_seconds = slow_request_seconds
        self.shard_of = shard_of
        #: Optional repro.obs.slo.SloTracker fed by every request.
        self.slo = slo
        if shard_of:
            index, _, count = shard_of.partition("/")
            gauge = engine.metrics.gauge(
                "repro_shard_identity",
                "This backend's shard index (label carries index/count).")
            gauge.set(float(index) if index.isdigit() else 0.0,
                      shard=shard_of)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "PredictionServer":
        """Serve on a daemon thread (used by tests and the smoke job)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.engine.close()


def make_server(
    engine: PredictionEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    tracing: bool = True,
    slow_request_seconds: float = 1.0,
    shard_of: str | None = None,
    slo: Any = None,
) -> PredictionServer:
    """Bind (``port=0`` picks an ephemeral port) without serving yet."""
    return PredictionServer(
        (host, port), engine,
        tracing=tracing, slow_request_seconds=slow_request_seconds,
        shard_of=shard_of, slo=slo,
    )


def run_server(
    engine: PredictionEngine,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    tracing: bool = True,
    slow_request_seconds: float = 1.0,
    shard_of: str | None = None,
    slo: Any = None,
) -> None:
    """Blocking serve loop with clean Ctrl-C/SIGTERM shutdown (the CLI path)."""
    configure_json_logging()
    server = make_server(engine, host, port,
                         tracing=tracing,
                         slow_request_seconds=slow_request_seconds,
                         shard_of=shard_of, slo=slo)

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread; Ctrl-C handling still applies
    log.info("serving on %s:%d", host, server.port)
    # flush: ephemeral-port deployments (port=0) read this line through a
    # pipe to learn the bound port; block-buffered stdout would deadlock.
    print(f"repro service listening on http://{host}:{server.port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        engine.close()
