"""The live run: real ``repro serve`` / ``repro route`` processes driven
over HTTP by one closed-loop load generator.

Every server runs ``--workers 0 --cache-size 256`` with default flags
otherwise: tracing on, no surrogate.  On a two-core machine the client
needs one core, so a worker pool would measure the scheduler rather
than the service; pool dispatch is out of scope.  A server announces
its port only after binding it (the router after its first health
probe), so the announcement doubles as the readiness signal.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import urlsplit

from repro.service import ReproClient
from repro.service.metrics import parse_exposition

__all__ = ["Record", "Topology", "die_with_parent", "drive", "live_layers",
           "scrape", "warm"]

SERVE_FLAGS = ("--workers", "0", "--cache-size", "256")
_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")
_STARTUP_SECONDS = 60.0
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Have the kernel SIGTERM this child if the benchmark dies first."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass    # not Linux: the finally-block teardown still applies


class _Server:
    """One spawned CLI process and the URL it announced."""

    def __init__(self, args: list[str], src_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *args,
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, preexec_fn=die_with_parent)
        self.url: str | None = None

    def await_url(self) -> str:
        deadline = time.monotonic() + _STARTUP_SECONDS
        stdout = self.process.stdout
        while self.url is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port")
            ready, _, _ = select.select([stdout], [], [], remaining)
            line = stdout.readline() if ready else ""
            if ready and not line:
                raise RuntimeError(
                    f"server exited with {self.process.wait()} before "
                    "announcing its port")
            match = _LISTENING.search(line)
            if match:
                self.url = match.group(1)
        return self.url

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Topology:
    """One server, or two backends behind ``repro route``."""

    def __init__(self, routed: bool, src_dir: str):
        self.routed = routed
        self.src_dir = src_dir
        self.servers: list[_Server] = []
        self.url = ""
        self.backend_urls: list[str] = []

    def start(self) -> None:
        count = 2 if self.routed else 1
        backends = [self._spawn(["serve", *SERVE_FLAGS]) for _ in range(count)]
        self.backend_urls = [server.await_url() for server in backends]
        if self.routed:
            router = self._spawn(["route", "--backends",
                                  ",".join(self.backend_urls)])
            self.url = router.await_url()
        else:
            self.url = self.backend_urls[0]

    def _spawn(self, args: list[str]) -> _Server:
        server = _Server(args, self.src_dir)
        self.servers.append(server)
        return server

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        for server in reversed(self.servers):
            server.stop()
        self.servers.clear()


def warm(url: str, batches: list[list[tuple[str, dict]]]) -> None:
    """Send each setup batch as one JSON-array POST; all must succeed."""
    parts = urlsplit(url)
    for batch in batches:
        kinds = {kind for kind, _ in batch}
        if len(kinds) != 1:
            raise ValueError("a setup batch must hold one request kind")
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=120)
        try:
            connection.request(
                "POST", "/" + kinds.pop(),
                body=json.dumps([payload for _, payload in batch]),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            answers = json.loads(response.read())
        finally:
            connection.close()
        if response.status != 200 or any("error" in a for a in answers):
            raise RuntimeError(f"setup batch failed: {str(answers)[:300]}")


@dataclass
class Record:
    """One timed request as the client saw it."""

    kind: str
    payload: dict
    started: float
    ended: float
    response: Any = None
    error: str | None = None


def _send(client: ReproClient, kind: str, payload: dict):
    if kind == "predict":
        return client.predict(payload["source"], bindings=payload["bindings"],
                              fidelity="exact")
    if kind == "sweep":
        return client.sweep(payload["source"], bindings=payload["bindings"])
    if kind == "restructure":
        return client.restructure(
            payload["source"], workload=payload["workload"],
            depth=payload["depth"], max_nodes=payload["max_nodes"],
            beam_width=payload["beam_width"])
    raise ValueError(f"unknown request kind {kind!r}")


def drive(topology: Topology, workload, seed: int, seconds: float
          ) -> tuple[list[Record], float, float]:
    """Closed loop for ``seconds``: ``workload.conns`` threads, each on
    its own keep-alive connection, send stream element after stream
    element, each waiting for the previous answer.  A request started
    before the deadline runs to completion.

    Returns the records, the window start, and the servers' peak RSS
    once ``workload.rss_after`` requests have completed (at the end of
    the window if fewer did): the servers' caches grow with the work
    done, so memory is compared at equal work, not at equal time.
    """
    client = ReproClient(topology.url, pool_size=workload.conns, retries=0,
                         timeout=120.0)
    lock = threading.Lock()
    records: list[Record] = []
    crashes: list[BaseException] = []
    rss_mb: list[float] = []
    position = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def loop() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline or crashes:
                    return
                k = position[0]
                position[0] += 1
            kind, payload = workload.request(seed, k)
            record = Record(kind, payload, time.perf_counter(), 0.0)
            try:
                record.response = _send(client, kind, payload)
            except Exception as error:  # noqa: BLE001 -- counted as failed
                record.error = f"{type(error).__name__}: {error}"
            record.ended = time.perf_counter()
            with lock:
                records.append(record)
                if len(records) == workload.rss_after:
                    rss_mb.append(topology.peak_rss_mb())

    def guarded() -> None:
        try:
            loop()
        except BaseException as error:  # re-raised on the main thread
            crashes.append(error)

    threads = [threading.Thread(target=guarded, name=f"client-{i}")
               for i in range(workload.conns)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        client.close()
    if crashes:
        raise crashes[0]
    if not rss_mb:
        rss_mb.append(topology.peak_rss_mb())
    return records, start, rss_mb[0]


def scrape(urls: list[str]) -> list[dict]:
    """Parsed ``/metrics`` of each URL, in order."""
    out = []
    for url in urls:
        with ReproClient(url, retries=0) as client:
            out.append(parse_exposition(client.metrics()))
    return out


def _total(families: dict, family: str, series: str, **labels: str) -> float:
    found = families.get(family)
    if found is None:
        return 0.0
    wanted = set(labels.items())
    return sum(sample.value for sample in found.samples
               if sample.name == series and wanted <= set(sample.labels))


def _delta(before: list[dict], after: list[dict], family: str, series: str,
           kinds=None, **labels: str) -> float:
    total = 0.0
    for old, new in zip(before, after):
        for kind in kinds or (None,):
            extra = dict(labels, endpoint=kind) if kind else labels
            total += (_total(new, family, series, **extra)
                      - _total(old, family, series, **extra))
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean_ms(before: list[dict], after: list[dict], histogram: str,
             kinds) -> float:
    count = _delta(before, after, histogram, histogram + "_count", kinds)
    return 1e3 * _ratio(
        _delta(before, after, histogram, histogram + "_sum", kinds), count)


def live_layers(before: dict, after: dict, kinds: set[str],
                client_mean_ms: float) -> dict[str, float]:
    """Per-layer metrics from ``/metrics`` deltas over the timed window.

    ``before``/``after`` map ``"backends"`` to the backends' parsed
    expositions and ``"router"`` to the router's (or ``[]``).  Only the
    workload's endpoints count, not health probes or scrapes.
    """
    old, new = before["backends"], after["backends"]
    handle_ms = _mean_ms(old, new, "repro_http_request_seconds", kinds)
    router_ms = 0.0
    if before["router"]:
        router_ms = _mean_ms(before["router"], after["router"],
                             "repro_router_http_request_seconds",
                             kinds) - handle_ms

    def delta(family: str, **labels: str) -> float:
        return _delta(old, new, family, family, **labels)

    hits = delta("repro_cache_hits_total")
    misses = delta("repro_cache_misses_total")
    placement = "repro_placement_cache_requests_total"
    placed_hits = delta(placement, result="hit")
    placed_misses = delta(placement, result="miss")
    return {
        "server.handle_ms": handle_ms,
        "wire.gap_ms": client_mean_ms - handle_ms,
        "router.self_ms": router_ms,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.evictions": delta("repro_cache_evictions_total"),
        "placement.hit_ratio": _ratio(placed_hits,
                                      placed_hits + placed_misses),
    }
