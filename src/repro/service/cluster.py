"""Spawn and manage local backend server subprocesses.

One helper shared by three callers that all need "N real ``server.py``
processes on ephemeral ports": the CLI's ``route --spawn N``, the
multi-backend integration tests, and ``benchmarks/bench_router.py``.
Each backend is a full ``python -m repro serve`` process -- its own
interpreter, engine, and caches -- so tests and benchmarks exercise
the real process topology, not threads pretending to be shards.

Backends bind port 0 and announce the chosen port on stdout
(``repro service listening on http://host:port``); :func:`spawn_backend`
parses that line, then waits for ``/healthz`` to answer so callers
never race a half-started server.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
import urllib.request

__all__ = ["LocalBackend", "spawn_backend", "spawn_backends"]

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


class LocalBackend:
    """One ``repro serve`` subprocess and its base URL."""

    def __init__(self, process: subprocess.Popen, url: str):
        self.process = process
        self.url = url

    @property
    def port(self) -> int:
        return int(self.url.rsplit(":", 1)[1])

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """Hard-stop (SIGKILL) -- the fault-injection path."""
        if self.alive():
            self.process.kill()
        self.process.wait(timeout=10)

    def terminate(self, timeout: float = 10.0) -> int:
        """Graceful stop (SIGTERM, then SIGKILL if it lingers)."""
        if self.alive():
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        return self.process.returncode

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def _repo_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def spawn_backend(
    *,
    cache_size: int = 1024,
    host: str = "127.0.0.1",
    extra_args: tuple[str, ...] = (),
    startup_timeout: float = 30.0,
) -> LocalBackend:
    """Start one backend on an ephemeral port; block until it's healthy."""
    command = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--host", host, "--port", "0", "--cache-size", str(cache_size),
        *extra_args,
    ]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=_repo_env(),
        start_new_session=True,  # our signals, not the caller's Ctrl-C group
    )
    deadline = time.monotonic() + startup_timeout
    url = None
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _LISTENING.search(line)
        if match:
            url = match.group(1)
            break
    if url is None:
        process.kill()
        process.wait()
        raise RuntimeError("backend did not announce a listening port")
    _wait_healthy(url, deadline)
    return LocalBackend(process, url)


def _wait_healthy(url: str, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=2) as resp:
                if resp.status == 200:
                    return
        except OSError:
            pass
        time.sleep(0.05)
    raise RuntimeError(f"backend at {url} never became healthy")


def spawn_backends(count: int, **kwargs) -> list[LocalBackend]:
    """Start ``count`` backends; tears all down if any fails to start."""
    backends: list[LocalBackend] = []
    shard_args = tuple(kwargs.pop("extra_args", ()))
    try:
        for index in range(count):
            backends.append(spawn_backend(
                extra_args=shard_args + ("--shard-of", f"{index}/{count}"),
                **kwargs))
    except Exception:
        for backend in backends:
            backend.terminate()
        raise
    return backends
