"""Client library for the prediction service and shard router.

Callers were hand-rolling ``urllib`` against the JSON wire format;
this module gives them two first-class clients speaking the exact
:mod:`repro.service.protocol` schema:

* :class:`ReproClient` -- synchronous, with a bounded pool of
  keep-alive ``http.client`` connections shared across threads;
* :class:`AsyncReproClient` -- the same surface on ``asyncio``,
  built on ``asyncio.open_connection`` (no third-party HTTP stack),
  with its own keep-alive connection pool.

Both return the typed response dataclasses (:class:`PredictResponse`
et al.) and raise typed errors instead of bare ``HTTPError``:

* :class:`TransportError` -- could not reach the service (connection
  refused, reset, timed out) after the retry budget;
* :class:`BadRequestError` -- the service rejected the request (4xx
  envelope: schema violation, parse error, unknown machine);
* :class:`ServerError` -- the service failed internally (5xx envelope).

Every request carries an ``X-Request-Id`` (caller-supplied or
generated), the server echoes it, and both the errors and the client's
``last_request_id`` expose it, so a failing call can be matched to the
server's JSON logs and traces without guesswork.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from typing import Any, Iterator, Mapping, Sequence

from ..obs import new_request_id
from .pool import HTTPConnectionPool, split_base_url
from .protocol import (
    CompareResponse,
    JobStatusResponse,
    KernelsResponse,
    PredictResponse,
    RestructureResponse,
    SweepResponse,
    response_from_dict,
)

__all__ = [
    "ReproClientError", "TransportError", "RemoteError",
    "BadRequestError", "ServerError",
    "ReproClient", "AsyncReproClient", "HTTPConnectionPool",
]


# ----------------------------------------------------------------------
# typed errors


class ReproClientError(Exception):
    """Base class for every error a repro client can raise."""


class TransportError(ReproClientError):
    """The service could not be reached (or the connection died mid-call)."""

    def __init__(self, message: str, *, request_id: str | None = None):
        super().__init__(message)
        self.request_id = request_id


class RemoteError(ReproClientError):
    """A non-2xx response; carries the service's error envelope."""

    def __init__(self, envelope: Mapping[str, Any], *,
                 request_id: str | None = None):
        self.error = str(envelope.get("error", "Error"))
        self.message = str(envelope.get("message", ""))
        self.status = int(envelope.get("status", 500))
        self.envelope = dict(envelope)
        self.request_id = request_id
        super().__init__(f"{self.error} ({self.status}): {self.message}")


class BadRequestError(RemoteError):
    """4xx: the request itself is invalid; retrying cannot help."""


class ServerError(RemoteError):
    """5xx: the service failed; a retry (or another shard) may succeed."""


def remote_error(envelope: Mapping[str, Any], *,
                 request_id: str | None = None) -> RemoteError:
    """Envelope dict -> the right typed error class."""
    status = int(envelope.get("status", 500))
    cls = BadRequestError if 400 <= status < 500 else ServerError
    return cls(envelope, request_id=request_id)


# ----------------------------------------------------------------------
# request payload builders (shared by both clients)


def _predict_payload(source: str, machine: str, backend: str,
                     include_memory: bool,
                     bindings: Mapping[str, Any] | None,
                     trace: bool, fidelity: str = "exact",
                     tolerance: float | None = None) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "source": source, "machine": machine, "backend": backend,
        "include_memory": include_memory,
    }
    if bindings:
        payload["bindings"] = {k: str(v) for k, v in bindings.items()}
    if trace:
        payload["trace"] = True
    # Sent only when non-default, so requests from older client builds
    # and these are byte-identical on the exact tier.
    if fidelity != "exact":
        payload["fidelity"] = fidelity
    if tolerance is not None:
        payload["tolerance"] = tolerance
    return payload


def _compare_payload(first: str, second: str, machine: str,
                     domain: Mapping[str, Any] | None,
                     trace: bool) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "first": first, "second": second, "machine": machine,
    }
    if domain:
        payload["domain"] = {k: list(v) for k, v in domain.items()}
    if trace:
        payload["trace"] = True
    return payload


def _restructure_payload(source: str, machine: str,
                         workload: Mapping[str, Any] | None,
                         domain: Mapping[str, Any] | None,
                         depth: int, max_nodes: int, beam_width: int,
                         trace: bool) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "source": source, "machine": machine, "depth": depth,
        "max_nodes": max_nodes, "beam_width": beam_width,
    }
    if workload:
        payload["workload"] = {k: str(v) for k, v in workload.items()}
    if domain:
        payload["domain"] = {k: list(v) for k, v in domain.items()}
    if trace:
        payload["trace"] = True
    return payload


def _sweep_payload(source: str, machine: str,
                   widths: Sequence[int] | None,
                   bindings: Mapping[str, Any] | None,
                   branch_miss_rate: float, cache_miss_rate: float,
                   trace: bool) -> dict[str, Any]:
    payload: dict[str, Any] = {"source": source, "machine": machine}
    if widths:
        payload["widths"] = [int(w) for w in widths]
    if bindings:
        payload["bindings"] = {k: str(v) for k, v in bindings.items()}
    if branch_miss_rate:
        payload["branch_miss_rate"] = branch_miss_rate
    if cache_miss_rate:
        payload["cache_miss_rate"] = cache_miss_rate
    if trace:
        payload["trace"] = True
    return payload


def _decode_single(kind: str, status: int, body: bytes,
                   request_id: str | None):
    data = json.loads(body.decode("utf-8"))
    if isinstance(data, Mapping) and "error" in data:
        raise remote_error(data, request_id=request_id)
    if status >= 400:
        raise remote_error(
            {"error": "HTTPError", "message": f"status {status}",
             "status": status},
            request_id=request_id)
    return response_from_dict(kind, data)


def _decode_batch(kinds: Sequence[str], status: int, body: bytes,
                  request_id: str | None) -> list[Any]:
    data = json.loads(body.decode("utf-8"))
    if isinstance(data, Mapping) and "error" in data:
        raise remote_error(data, request_id=request_id)
    if not isinstance(data, list) or len(data) != len(kinds):
        raise TransportError(
            f"batch response shape mismatch: {len(kinds)} requests, "
            f"{len(data) if isinstance(data, list) else type(data).__name__} "
            "responses", request_id=request_id)
    out: list[Any] = []
    for kind, item in zip(kinds, data):
        if isinstance(item, Mapping) and "error" in item:
            out.append(remote_error(item, request_id=request_id))
        else:
            out.append(response_from_dict(kind, item))
    return out


def _decode_job(status: int, body: bytes,
                request_id: str | None) -> "JobStatusResponse":
    """Decode a job record, keyed on the HTTP status alone.

    Job records legitimately carry an ``error`` field (a failed job's
    message, or null), so the ``"error" in data`` envelope sniffing in
    :func:`_decode_single` would misfire here.
    """
    data = json.loads(body.decode("utf-8"))
    if status >= 400:
        raise remote_error(data, request_id=request_id)
    return response_from_dict("job_status", data)


#: Wire path of the async-job endpoints (mirrors
#: :data:`repro.service.jobs.JOBS_PREFIX`; duplicated here so the
#: client library never imports the server-side job machinery).
_JOBS_PATH = "/restructure/jobs"

#: Job statuses after which no further events will ever arrive.
_TERMINAL = ("done", "error", "cancelled")


def _job_payload(source: str, machine: str,
                 workload: Mapping[str, Any] | None,
                 domain: Mapping[str, Any] | None,
                 depth: int, max_nodes: int, beam_width: int,
                 priority: int) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "source": source, "machine": machine, "depth": depth,
        "max_nodes": max_nodes, "beam_width": beam_width,
    }
    if workload:
        payload["workload"] = {k: str(v) for k, v in workload.items()}
    if domain:
        payload["domain"] = {k: list(v) for k, v in domain.items()}
    if priority:
        payload["priority"] = priority
    return payload


# ----------------------------------------------------------------------
# sync client


class ReproClient:
    """Synchronous client with pooled keep-alive connections.

    ::

        with ReproClient("http://127.0.0.1:8080") as client:
            response = client.predict(saxpy_source, bindings={"n": 100})
            print(response.cost, response.cycles)   # "3*n + 8" "308"

    Point it at a single server or at a shard router -- the wire
    format is identical.  Safe to share across threads.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 pool_size: int = 4, retries: int = 1):
        self.base_url = base_url
        host, port = split_base_url(base_url)
        self._pool = HTTPConnectionPool(host, port, size=pool_size,
                                        timeout=timeout)
        self.retries = max(0, retries)
        self.last_request_id: str | None = None

    # -- plumbing -------------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, method: str, path: str, payload: Any,
              request_id: str | None) -> tuple[int, bytes, str]:
        request_id = request_id or new_request_id()
        self.last_request_id = request_id
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        last: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                status, _, response_body = self._pool.request(
                    method, path, body, headers)
                return status, response_body, request_id
            except (ConnectionError, socket.timeout, TimeoutError,
                    OSError, http.client.HTTPException) as error:
                last = error
        raise TransportError(
            f"{method} {self.base_url}{path} failed: {last}",
            request_id=request_id) from last

    # -- endpoints ------------------------------------------------------
    def predict(self, source: str, *, machine: str = "power",
                backend: str = "aggressive", include_memory: bool = False,
                bindings: Mapping[str, Any] | None = None,
                trace: bool = False, fidelity: str = "exact",
                tolerance: float | None = None,
                request_id: str | None = None) -> PredictResponse:
        payload = _predict_payload(source, machine, backend,
                                   include_memory, bindings, trace,
                                   fidelity, tolerance)
        status, body, rid = self._call("POST", "/predict", payload, request_id)
        return _decode_single("predict", status, body, rid)

    def compare(self, first: str, second: str, *, machine: str = "power",
                domain: Mapping[str, Any] | None = None, trace: bool = False,
                request_id: str | None = None) -> CompareResponse:
        payload = _compare_payload(first, second, machine, domain, trace)
        status, body, rid = self._call("POST", "/compare", payload, request_id)
        return _decode_single("compare", status, body, rid)

    def restructure(self, source: str, *, machine: str = "power",
                    workload: Mapping[str, Any] | None = None,
                    domain: Mapping[str, Any] | None = None,
                    depth: int = 2, max_nodes: int = 200,
                    beam_width: int = 1, trace: bool = False,
                    request_id: str | None = None) -> RestructureResponse:
        payload = _restructure_payload(source, machine, workload, domain,
                                       depth, max_nodes, beam_width, trace)
        status, body, rid = self._call("POST", "/restructure", payload,
                                       request_id)
        return _decode_single("restructure", status, body, rid)

    def sweep(self, source: str, *, machine: str = "power",
              widths: Sequence[int] | None = None,
              bindings: Mapping[str, Any] | None = None,
              branch_miss_rate: float = 0.0,
              cache_miss_rate: float = 0.0,
              trace: bool = False,
              request_id: str | None = None) -> SweepResponse:
        payload = _sweep_payload(source, machine, widths, bindings,
                                 branch_miss_rate, cache_miss_rate, trace)
        status, body, rid = self._call("POST", "/sweep", payload, request_id)
        return _decode_single("sweep", status, body, rid)

    def kernels(self, machine: str = "power", *,
                request_id: str | None = None) -> KernelsResponse:
        status, body, rid = self._call(
            "GET", f"/kernels?machine={machine}", None, request_id)
        return _decode_single("kernels", status, body, rid)

    def predict_batch(self, payloads: Sequence[Mapping[str, Any]], *,
                      request_id: str | None = None) -> list[Any]:
        """POST a JSON-array batch to ``/predict``.

        Returns one entry per request *in order*: a
        :class:`PredictResponse` on success, a :class:`RemoteError`
        instance (not raised) for entries the service rejected, so one
        bad request cannot void the batch.
        """
        status, body, rid = self._call("POST", "/predict", list(payloads),
                                       request_id)
        return _decode_batch(["predict"] * len(payloads), status, body, rid)

    def healthz(self) -> dict[str, Any]:
        status, body, rid = self._call("GET", "/healthz", None, None)
        if status != 200:
            raise remote_error(
                json.loads(body.decode("utf-8")), request_id=rid)
        return json.loads(body.decode("utf-8"))

    def metrics(self) -> str:
        status, body, rid = self._call("GET", "/metrics", None, None)
        if status != 200:
            raise TransportError(f"/metrics returned {status}",
                                 request_id=rid)
        return body.decode("utf-8")

    def cluster_metrics(self) -> str:
        """The router's merged cluster exposition (``/metrics/cluster``).

        Only routers serve this path; a plain server answers 404, which
        surfaces as the typed :class:`BadRequestError`.
        """
        status, body, rid = self._call("GET", "/metrics/cluster", None, None)
        if status != 200:
            raise remote_error(
                {"error": "HTTPError",
                 "message": f"/metrics/cluster returned {status}",
                 "status": status}, request_id=rid)
        return body.decode("utf-8")

    def debug_trace(self, request_id: str, *,
                    fmt: str = "chrome") -> dict[str, Any]:
        """Fetch the stitched trace for a recent request id.

        ``fmt="chrome"`` returns a ``chrome://tracing``-loadable object;
        ``fmt="spans"`` the raw span dicts.  404 (trace expired or never
        sampled) raises the typed remote error.
        """
        status, body, rid = self._call(
            "GET", f"/debug/trace/{request_id}?format={fmt}", None, None)
        data = json.loads(body.decode("utf-8"))
        if status != 200:
            raise remote_error(data, request_id=rid)
        return data

    # -- async jobs -----------------------------------------------------
    def submit_restructure(self, source: str, *, machine: str = "power",
                           workload: Mapping[str, Any] | None = None,
                           domain: Mapping[str, Any] | None = None,
                           depth: int = 2, max_nodes: int = 200,
                           beam_width: int = 1, priority: int = 0,
                           request_id: str | None = None) -> JobStatusResponse:
        """Submit an async restructure job; returns the ``queued`` status.

        The job id on the response is the handle for
        :meth:`job_status`, :meth:`iter_events`, :meth:`wait`, and
        :meth:`cancel_job`.
        """
        payload = _job_payload(source, machine, workload, domain,
                               depth, max_nodes, beam_width, priority)
        status, body, rid = self._call("POST", _JOBS_PATH, payload,
                                       request_id)
        return _decode_job(status, body, rid)

    def job_status(self, job_id: str, *,
                   request_id: str | None = None) -> JobStatusResponse:
        status, body, rid = self._call("GET", f"{_JOBS_PATH}/{job_id}",
                                       None, request_id)
        return _decode_job(status, body, rid)

    def cancel_job(self, job_id: str, *,
                   request_id: str | None = None) -> JobStatusResponse:
        status, body, rid = self._call("DELETE", f"{_JOBS_PATH}/{job_id}",
                                       None, request_id)
        return _decode_job(status, body, rid)

    def iter_events(self, job_id: str, *, from_round: int = 0,
                    request_id: str | None = None,
                    ) -> Iterator[dict[str, Any]]:
        """Yield the job's SSE events (rounds then the final event).

        Uses a dedicated connection (a stream pins its socket for the
        job's lifetime, which would starve the pool).  Any transport
        failure -- including the stream ending before the final event,
        the signature of a killed shard or a truncating proxy -- raises
        :class:`TransportError`; resume by calling again with
        ``from_round`` set to the last round seen (or use
        :meth:`follow`, which does exactly that).
        """
        request_id = request_id or new_request_id()
        self.last_request_id = request_id
        path = f"{_JOBS_PATH}/{job_id}/events?from_round={from_round}"
        connection = http.client.HTTPConnection(
            self._pool.host, self._pool.port, timeout=self._pool.timeout)
        try:
            try:
                connection.request("GET", path,
                                   headers={"X-Request-Id": request_id})
                response = connection.getresponse()
            except (ConnectionError, socket.timeout, TimeoutError,
                    OSError, http.client.HTTPException) as error:
                raise TransportError(
                    f"GET {self.base_url}{path} failed: {error}",
                    request_id=request_id) from error
            if response.status != 200:
                body = response.read()
                try:
                    envelope = json.loads(body.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    envelope = {"error": "HTTPError",
                                "message": f"status {response.status}",
                                "status": response.status}
                raise remote_error(envelope, request_id=request_id)
            yield from self._read_sse(response, request_id)
        finally:
            connection.close()

    def _read_sse(self, response: http.client.HTTPResponse,
                  request_id: str) -> Iterator[dict[str, Any]]:
        data_lines: list[str] = []
        while True:
            try:
                raw = response.readline()
            except (ConnectionError, socket.timeout, TimeoutError,
                    OSError, http.client.HTTPException) as error:
                raise TransportError(
                    f"event stream broke mid-read: {error}",
                    request_id=request_id) from error
            if not raw:
                # EOF.  A healthy stream always ends with a final event
                # (yielded below, which returns); reaching EOF here
                # means the server died or a proxy truncated the body.
                raise TransportError(
                    "event stream ended before the final event",
                    request_id=request_id)
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("data:"):
                data_lines.append(line[len("data:"):].strip())
                continue
            if line == "" and data_lines:
                try:
                    event = json.loads("\n".join(data_lines))
                except json.JSONDecodeError as error:
                    raise TransportError(
                        f"undecodable event frame: {error}",
                        request_id=request_id) from error
                data_lines = []
                yield event
                if event.get("final"):
                    return

    def follow(self, job_id: str, *, from_round: int = 0,
               max_retries: int = 10, poll: float = 0.2,
               request_id: str | None = None,
               ) -> Iterator[dict[str, Any]]:
        """Like :meth:`iter_events`, but survives stream drops.

        On a :class:`TransportError` it re-attaches with ``from_round``
        set past the rounds already yielded -- against a router this
        lands on the ring successor, which adopts the orphaned job and
        resumes it from its checkpoint, so the caller sees every round
        exactly once even across a shard SIGKILL.  One request id is
        minted up front and reused on every re-attach, so the whole
        follow -- across failovers -- is a single thread in the server
        logs and traces.
        """
        request_id = request_id or new_request_id()
        last = from_round
        failures = 0
        while True:
            try:
                for event in self.iter_events(job_id, from_round=last,
                                              request_id=request_id):
                    if not event.get("final"):
                        last = max(last, int(event.get("round", 0)))
                    yield event
                    if event.get("final"):
                        return
                return
            except TransportError:
                failures += 1
                if failures > max_retries:
                    raise
                time.sleep(poll)

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll: float = 0.2) -> JobStatusResponse:
        """Block until the job is terminal; returns its final status.

        Raises the typed remote error if the job *failed*, and
        :class:`TimeoutError` if it is still running at the deadline
        (the job keeps running server-side).
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            response = self.job_status(job_id)
            if response.status in _TERMINAL:
                if response.status == "error":
                    raise remote_error(
                        response.error or
                        {"error": "JobError", "message": "job failed",
                         "status": 500},
                        request_id=self.last_request_id)
                return response
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {response.status} "
                    f"after {timeout}s")
            time.sleep(poll)


# ----------------------------------------------------------------------
# async client


class _AsyncConnection:
    """One keep-alive HTTP/1.1 connection on asyncio streams."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def request(self, host: str, method: str, path: str,
                      body: bytes | None,
                      headers: Mapping[str, str]) -> tuple[int, dict[str, str], bytes]:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        lines.append("\r\n")
        self.writer.write("\r\n".join(lines).encode("ascii"))
        if body is not None:
            self.writer.write(body)
        await self.writer.drain()

        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionResetError(f"bad status line {status_line!r}")
        status = int(parts[1])
        response_headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", 0))
        payload = await self.reader.readexactly(length) if length else b""
        return status, response_headers, payload

    def close(self) -> None:
        self.writer.close()


class AsyncReproClient:
    """``asyncio`` client with the same surface as :class:`ReproClient`.

    ::

        async with AsyncReproClient("http://127.0.0.1:8080") as client:
            responses = await asyncio.gather(
                *(client.predict(src) for src in sources))

    Connections are pooled per client instance; concurrent calls each
    get their own connection up to ``pool_size``, beyond which extra
    connections are opened and closed per call.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 pool_size: int = 4, retries: int = 1):
        self.base_url = base_url
        self.host, self.port = split_base_url(base_url)
        self.timeout = timeout
        self.pool_size = pool_size
        self.retries = max(0, retries)
        self.last_request_id: str | None = None
        self._idle: list[_AsyncConnection] = []
        self._lock = threading.Lock()  # pool ops are sync + tiny

    # -- plumbing -------------------------------------------------------
    async def aclose(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    async def __aenter__(self) -> "AsyncReproClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _pop_idle(self) -> _AsyncConnection | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _push_idle(self, connection: _AsyncConnection) -> None:
        with self._lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(connection)
                return
        connection.close()

    async def _connect(self) -> _AsyncConnection:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return _AsyncConnection(reader, writer)

    async def _call(self, method: str, path: str, payload: Any,
                    request_id: str | None) -> tuple[int, bytes, str]:
        request_id = request_id or new_request_id()
        self.last_request_id = request_id
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        headers = {"X-Request-Id": request_id, "Connection": "keep-alive"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        last: Exception | None = None
        attempts = 0
        while attempts <= self.retries:
            connection = self._pop_idle()
            reused = connection is not None
            try:
                if connection is None:
                    connection = await asyncio.wait_for(
                        self._connect(), self.timeout)
                status, response_headers, response_body = (
                    await asyncio.wait_for(
                        connection.request(self.host, method, path, body,
                                           headers),
                        self.timeout))
                if response_headers.get("connection", "").lower() == "close":
                    connection.close()
                else:
                    self._push_idle(connection)
                return status, response_body, request_id
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, OSError) as error:
                if connection is not None:
                    connection.close()
                last = error
                # A stale pooled connection earns a free retry (the
                # server may simply have closed an idle socket); a
                # fresh connection failing consumes the retry budget.
                if not reused:
                    attempts += 1
        raise TransportError(
            f"{method} {self.base_url}{path} failed: {last}",
            request_id=request_id) from last

    # -- endpoints ------------------------------------------------------
    async def predict(self, source: str, *, machine: str = "power",
                      backend: str = "aggressive",
                      include_memory: bool = False,
                      bindings: Mapping[str, Any] | None = None,
                      trace: bool = False, fidelity: str = "exact",
                      tolerance: float | None = None,
                      request_id: str | None = None) -> PredictResponse:
        payload = _predict_payload(source, machine, backend,
                                   include_memory, bindings, trace,
                                   fidelity, tolerance)
        status, body, rid = await self._call("POST", "/predict", payload,
                                             request_id)
        return _decode_single("predict", status, body, rid)

    async def compare(self, first: str, second: str, *,
                      machine: str = "power",
                      domain: Mapping[str, Any] | None = None,
                      trace: bool = False,
                      request_id: str | None = None) -> CompareResponse:
        payload = _compare_payload(first, second, machine, domain, trace)
        status, body, rid = await self._call("POST", "/compare", payload,
                                             request_id)
        return _decode_single("compare", status, body, rid)

    async def restructure(self, source: str, *, machine: str = "power",
                          workload: Mapping[str, Any] | None = None,
                          domain: Mapping[str, Any] | None = None,
                          depth: int = 2, max_nodes: int = 200,
                          beam_width: int = 1, trace: bool = False,
                          request_id: str | None = None) -> RestructureResponse:
        payload = _restructure_payload(source, machine, workload, domain,
                                       depth, max_nodes, beam_width, trace)
        status, body, rid = await self._call("POST", "/restructure", payload,
                                             request_id)
        return _decode_single("restructure", status, body, rid)

    async def sweep(self, source: str, *, machine: str = "power",
                    widths: Sequence[int] | None = None,
                    bindings: Mapping[str, Any] | None = None,
                    branch_miss_rate: float = 0.0,
                    cache_miss_rate: float = 0.0,
                    trace: bool = False,
                    request_id: str | None = None) -> SweepResponse:
        payload = _sweep_payload(source, machine, widths, bindings,
                                 branch_miss_rate, cache_miss_rate, trace)
        status, body, rid = await self._call("POST", "/sweep", payload,
                                             request_id)
        return _decode_single("sweep", status, body, rid)

    async def kernels(self, machine: str = "power", *,
                      request_id: str | None = None) -> KernelsResponse:
        status, body, rid = await self._call(
            "GET", f"/kernels?machine={machine}", None, request_id)
        return _decode_single("kernels", status, body, rid)

    async def predict_batch(self, payloads: Sequence[Mapping[str, Any]], *,
                            request_id: str | None = None) -> list[Any]:
        status, body, rid = await self._call("POST", "/predict",
                                             list(payloads), request_id)
        return _decode_batch(["predict"] * len(payloads), status, body, rid)

    async def healthz(self) -> dict[str, Any]:
        status, body, rid = await self._call("GET", "/healthz", None, None)
        if status != 200:
            raise remote_error(
                json.loads(body.decode("utf-8")), request_id=rid)
        return json.loads(body.decode("utf-8"))

    async def metrics(self) -> str:
        status, body, rid = await self._call("GET", "/metrics", None, None)
        if status != 200:
            raise TransportError(f"/metrics returned {status}",
                                 request_id=rid)
        return body.decode("utf-8")

    async def cluster_metrics(self) -> str:
        status, body, rid = await self._call("GET", "/metrics/cluster",
                                             None, None)
        if status != 200:
            raise remote_error(
                {"error": "HTTPError",
                 "message": f"/metrics/cluster returned {status}",
                 "status": status}, request_id=rid)
        return body.decode("utf-8")

    async def debug_trace(self, request_id: str, *,
                          fmt: str = "chrome") -> dict[str, Any]:
        status, body, rid = await self._call(
            "GET", f"/debug/trace/{request_id}?format={fmt}", None, None)
        data = json.loads(body.decode("utf-8"))
        if status != 200:
            raise remote_error(data, request_id=rid)
        return data

    # -- async jobs -----------------------------------------------------
    async def submit_restructure(
            self, source: str, *, machine: str = "power",
            workload: Mapping[str, Any] | None = None,
            domain: Mapping[str, Any] | None = None,
            depth: int = 2, max_nodes: int = 200, beam_width: int = 1,
            priority: int = 0,
            request_id: str | None = None) -> JobStatusResponse:
        payload = _job_payload(source, machine, workload, domain,
                               depth, max_nodes, beam_width, priority)
        status, body, rid = await self._call("POST", _JOBS_PATH, payload,
                                             request_id)
        return _decode_job(status, body, rid)

    async def job_status(self, job_id: str, *,
                         request_id: str | None = None) -> JobStatusResponse:
        status, body, rid = await self._call(
            "GET", f"{_JOBS_PATH}/{job_id}", None, request_id)
        return _decode_job(status, body, rid)

    async def cancel_job(self, job_id: str, *,
                         request_id: str | None = None) -> JobStatusResponse:
        status, body, rid = await self._call(
            "DELETE", f"{_JOBS_PATH}/{job_id}", None, request_id)
        return _decode_job(status, body, rid)

    async def iter_events(self, job_id: str, *, from_round: int = 0,
                          request_id: str | None = None):
        """Async generator over the job's SSE events.

        Same contract as :meth:`ReproClient.iter_events`: a stream that
        ends before the final event raises :class:`TransportError`.
        """
        request_id = request_id or new_request_id()
        self.last_request_id = request_id
        path = f"{_JOBS_PATH}/{job_id}/events?from_round={from_round}"
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
        except (ConnectionError, asyncio.TimeoutError, OSError) as error:
            raise TransportError(
                f"GET {self.base_url}{path} failed: {error}",
                request_id=request_id) from error
        try:
            writer.write(
                (f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                 f"X-Request-Id: {request_id}\r\n"
                 f"Connection: close\r\n\r\n").encode("ascii"))
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(),
                                                 self.timeout)
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise TransportError(
                    f"bad status line {status_line!r}",
                    request_id=request_id)
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              self.timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if status != 200:
                length = int(headers.get("content-length", 0))
                body = (await reader.readexactly(length)) if length else b""
                try:
                    envelope = json.loads(body.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    envelope = {"error": "HTTPError",
                                "message": f"status {status}",
                                "status": status}
                raise remote_error(envelope, request_id=request_id)
            data_lines: list[str] = []
            while True:
                try:
                    raw = await asyncio.wait_for(reader.readline(),
                                                 self.timeout)
                except (ConnectionError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError, OSError) as error:
                    raise TransportError(
                        f"event stream broke mid-read: {error}",
                        request_id=request_id) from error
                if not raw:
                    raise TransportError(
                        "event stream ended before the final event",
                        request_id=request_id)
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                    continue
                if line == "" and data_lines:
                    event = json.loads("\n".join(data_lines))
                    data_lines = []
                    yield event
                    if event.get("final"):
                        return
        finally:
            writer.close()

    async def wait(self, job_id: str, *, timeout: float | None = None,
                   poll: float = 0.2) -> JobStatusResponse:
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            response = await self.job_status(job_id)
            if response.status in _TERMINAL:
                if response.status == "error":
                    raise remote_error(
                        response.error or
                        {"error": "JobError", "message": "job failed",
                         "status": 500},
                        request_id=self.last_request_id)
                return response
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {response.status} "
                    f"after {timeout}s")
            await asyncio.sleep(poll)
