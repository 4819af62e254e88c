"""Keep-alive HTTP connections to one host, shared across threads.

:class:`HTTPConnectionPool` is the transport under both
:class:`~repro.service.client.ReproClient` and the shard router's
forwarder.  It lives apart from the client so that the router, which
imports it, loads neither ``asyncio`` nor the async client.
"""

from __future__ import annotations

import http.client
import queue
from typing import Mapping
from urllib.parse import urlsplit

__all__ = ["HTTPConnectionPool", "split_base_url"]


def split_base_url(base_url: str) -> tuple[str, int]:
    """``http://host:port`` or ``host:port`` -> ``(host, port)``."""
    parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
    if parts.scheme not in ("", "http"):
        raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port if parts.port is not None else 80
    return host, port


#: Connection-level failures that justify one retry on a *fresh*
#: connection: a pooled keep-alive socket may have been closed by the
#: server (idle timeout, restart) between our requests.
_STALE_CONNECTION_ERRORS = (
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class HTTPConnectionPool:
    """A bounded pool of keep-alive HTTP connections to one host.

    ``acquire`` hands out an idle connection or opens a fresh one;
    ``release`` returns it for reuse (up to ``size`` idle connections
    are kept; extras are closed).  ``discard`` closes a connection that
    failed mid-request so it is never reused.  Thread-safe; used by
    both :class:`ReproClient` and the shard router's forwarder.
    """

    def __init__(self, host: str, port: int, *, size: int = 4,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.size = size
        self.timeout = timeout
        self._idle: queue.LifoQueue = queue.LifoQueue(maxsize=size)
        self._closed = False

    def acquire(self) -> http.client.HTTPConnection:
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            return http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)

    def release(self, connection: http.client.HTTPConnection) -> None:
        if self._closed:
            connection.close()
            return
        try:
            self._idle.put_nowait(connection)
        except queue.Full:
            connection.close()

    def discard(self, connection: http.client.HTTPConnection) -> None:
        connection.close()

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return

    def request(self, method: str, path: str, body: bytes | None,
                headers: Mapping[str, str]) -> tuple[int, dict[str, str], bytes]:
        """One pooled request; returns ``(status, headers, body)``.

        Retries exactly once on a stale-connection failure, and only
        when the failure happened on a *reused* connection -- a fresh
        connection failing the same way is a real transport error.
        """
        for attempt in (0, 1):
            connection = self.acquire()
            fresh = connection.sock is None
            try:
                connection.request(method, path, body=body,
                                   headers=dict(headers))
                response = connection.getresponse()
                payload = response.read()
                response_headers = {k.lower(): v
                                    for k, v in response.getheaders()}
                if response_headers.get("connection", "").lower() == "close":
                    self.discard(connection)
                else:
                    self.release(connection)
                return response.status, response_headers, payload
            except _STALE_CONNECTION_ERRORS:
                self.discard(connection)
                if fresh or attempt == 1:
                    raise
            except Exception:
                self.discard(connection)
                raise
        raise AssertionError("unreachable")
