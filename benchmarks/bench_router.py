"""E-ROUTER -- aggregate warm-cache throughput: 3 shards vs 1 backend.

The router's economic claim is *aggregate cache capacity with shard
affinity*: a working set that overflows one backend's LRU result cache
thrashes it (a cyclic scan over an LRU is the textbook worst case --
every request repeats the full parse/translate/place pipeline), while
the consistent-hash split hands each of three shards a stable ~1/3
slice that fits its cache, so steady-state traffic is all hits.

Topology is real: each backend is a separate ``python -m repro serve``
process and the router is a separate ``python -m repro route`` process,
all spawned here and torn down afterwards.  Traffic is JSON-array
batches through :class:`ReproClient`, the same wire path as production.
On multi-core hosts CPU parallelism across the backend processes adds
on top of the capacity win; the asserted floor does not depend on it.

Writes ``E-ROUTER.txt`` (table) and ``BENCH_ROUTER.json`` (the
machine-readable gate the ``router-smoke`` CI job checks): the full run
asserts the ISSUE acceptance floor, >= 2x items/s for 3 shards over a
single backend on the same working set.
"""

import json
import re
import subprocess
import sys
import time

from repro.service import ReproClient
from repro.service.cluster import LocalBackend, spawn_backend, spawn_backends

from _report import RESULTS_DIR, emit_table

WORKING_SET = 96      # distinct programs in flight
CACHE_SIZE = 64       # per-backend result cache: < WORKING_SET, > 1/3 of it
BATCH = 32
STATEMENTS = 12       # loop-body size: makes predict >> parse-only hit

_ROUTER_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


def _program(index: int) -> str:
    body = "\n".join(
        f"    y(i) = y(i) + alpha * x(i) + {index}.0 * {j}.0"
        for j in range(1, STATEMENTS + 1))
    return (f"program p{index}\n"
            f"  integer n, i\n"
            f"  real x(n), y(n), alpha\n"
            f"  do i = 1, n\n{body}\n  end do\nend\n")


def _spawn_router(backend_urls, startup_timeout=30.0) -> LocalBackend:
    command = [
        sys.executable, "-u", "-m", "repro", "route",
        "--host", "127.0.0.1", "--port", "0",
        "--backends", ",".join(backend_urls),
        "--probe-interval", "1.0",
    ]
    from repro.service.cluster import _repo_env, _wait_healthy

    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=_repo_env(), start_new_session=True)
    deadline = time.monotonic() + startup_timeout
    url = None
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _ROUTER_LISTENING.search(line)
        if match:
            url = match.group(1)
            break
    if url is None:
        process.kill()
        process.wait()
        raise RuntimeError("router did not announce a listening port")
    _wait_healthy(url, deadline)
    return LocalBackend(process, url)


def _drive(url: str, sources, passes: int) -> float:
    """Wall seconds for ``passes`` cyclic sweeps in BATCH-sized arrays."""
    batches = [sources[i:i + BATCH] for i in range(0, len(sources), BATCH)]
    with ReproClient(url, timeout=120) as client:
        started = time.perf_counter()
        for _ in range(passes):
            for batch in batches:
                results = client.predict_batch(
                    [{"source": source} for source in batch])
                bad = [r for r in results if not hasattr(r, "cost")]
                if bad:
                    raise RuntimeError(f"client-visible errors: {bad[:3]}")
        return time.perf_counter() - started


def _measure_single(sources, passes: int) -> float:
    with spawn_backend(cache_size=CACHE_SIZE) as backend:
        _drive(backend.url, sources, 1)          # reach steady state
        return _drive(backend.url, sources, passes)


def _measure_sharded(sources, passes: int) -> float:
    backends = spawn_backends(3, cache_size=CACHE_SIZE)
    router = None
    try:
        router = _spawn_router([b.url for b in backends])
        _drive(router.url, sources, 1)           # warm every shard's slice
        return _drive(router.url, sources, passes)
    finally:
        if router is not None:
            router.terminate()
        for backend in backends:
            backend.terminate()


def _router_rows(passes: int):
    sources = [_program(index) for index in range(WORKING_SET)]
    items = WORKING_SET * passes
    single_s = _measure_single(sources, passes)
    sharded_s = _measure_sharded(sources, passes)
    speedup = (items / sharded_s) / (items / single_s)
    rows = [
        ("1 backend (thrashing)", f"{single_s:.2f}s",
         f"{items / single_s:,.0f}", "1.00x"),
        ("router + 3 shards", f"{sharded_s:.2f}s",
         f"{items / sharded_s:,.0f}", f"{speedup:.2f}x"),
    ]
    report = {
        "working_set": WORKING_SET,
        "cache_size_per_backend": CACHE_SIZE,
        "batch": BATCH,
        "passes": passes,
        "items": items,
        "single_seconds": single_s,
        "single_items_per_s": items / single_s,
        "sharded_seconds": sharded_s,
        "sharded_items_per_s": items / sharded_s,
        "speedup": speedup,
    }
    notes = (f"working set {WORKING_SET} programs, per-backend cache "
             f"{CACHE_SIZE}: one backend thrashes (cyclic LRU scan), "
             f"three shards each hold their ~1/3 slice warm")
    return rows, notes, report


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-ROUTER",
        "Sharded serving throughput: 3 shards vs 1 backend, same traffic",
        ["topology", "wall", "items/s", "speedup"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_ROUTER.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def main(argv=None):
    """Standalone entry for the CI router-smoke gate: no pytest needed."""
    import argparse

    parser = argparse.ArgumentParser(description="E-ROUTER gate")
    parser.add_argument("--quick", action="store_true",
                        help="fewer passes and a 1.2x floor (CI runners "
                             "share cores; the 2x claim is the full run)")
    args = parser.parse_args(argv)
    passes = 2 if args.quick else 5
    rows, notes, report = _router_rows(passes)
    out = _emit(rows, notes, report, quick=args.quick)
    floor = 1.2 if args.quick else 2.0
    if report["speedup"] < floor:
        print(f"FAIL: sharded speedup {report['speedup']:.2f}x below "
              f"the {floor:.1f}x floor")
        return 1
    print(f"router ok: {report['speedup']:.2f}x aggregate throughput, "
          f"{report['sharded_items_per_s']:,.0f} items/s over 3 shards "
          f"({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
