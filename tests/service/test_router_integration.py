"""Multi-backend integration: router over three real server processes.

This is the ISSUE acceptance scenario run for real -- three
``python -m repro serve`` subprocesses, a router sharding across them,
mixed traffic through both the sync and async clients, and a backend
killed mid-run without a single client-visible error.  Marked
``slow``-ish by nature (three interpreter startups), so everything
shares one module-scoped cluster.
"""

import asyncio
import json
import urllib.request

import pytest

from repro.service import AsyncReproClient, RemoteError, ReproClient
from repro.service.cluster import spawn_backends

from .conftest import (
    SAXPY,
    http_get,
    http_post,
    metrics_values,
    running_router,
    saxpy_variant,
)


@pytest.fixture(scope="module")
def cluster():
    backends = spawn_backends(3, cache_size=256)
    try:
        yield backends
    finally:
        for backend in backends:
            backend.terminate()


def backend_metric(url: str, series: str) -> float:
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
        return metrics_values(response.read().decode()).get(series, 0.0)


def test_cluster_backends_report_shard_identity(cluster):
    for index, backend in enumerate(cluster):
        with urllib.request.urlopen(f"{backend.url}/healthz",
                                    timeout=10) as response:
            body = json.loads(response.read())
        assert body["shard"] == f"{index}/3"


def test_mixed_batch_spans_shards_with_affinity(cluster):
    urls = [backend.url for backend in cluster]
    with running_router(urls) as router:
        base = f"http://127.0.0.1:{router.port}"
        sources = [saxpy_variant(i) for i in range(12)]

        hits_before = {u: backend_metric(u, "repro_cache_hits_total")
                       for u in urls}

        # Sync client: one JSON-array batch fans out across all shards.
        with ReproClient(base) as client:
            first = client.predict_batch(
                [{"source": source} for source in sources])
            assert all(not isinstance(r, RemoteError) for r in first)
            assert all(not r.cached for r in first)

            # Same batch again: every item must hit the cache of the
            # shard that owns it -- this is the affinity proof.  If
            # routing were random, repeats would land on cold shards.
            second = client.predict_batch(
                [{"source": source} for source in sources])
            assert all(r.cached for r in second)

        hits_after = {u: backend_metric(u, "repro_cache_hits_total")
                      for u in urls}
        new_hits = {u: hits_after[u] - hits_before[u] for u in urls}
        assert sum(new_hits.values()) == len(sources)
        # The keyspace split actually used more than one backend.
        assert sum(1 for value in new_hits.values() if value > 0) >= 2

        # Async client against the same router: typed responses, all
        # warm now, plus compare/kernels crossing their own key types.
        async def async_leg():
            async with AsyncReproClient(base) as client:
                responses = await asyncio.gather(
                    *(client.predict(source) for source in sources[:6]))
                assert all(r.cached for r in responses)
                comparison = await client.compare(SAXPY, saxpy_variant(0))
                assert comparison.verdict == "first_always"

        asyncio.run(async_leg())

        # Router metrics agree: forwards went to >= 2 shards, all ok.
        _, text = http_get(router.port, "/metrics")
        metrics = metrics_values(text)
        ok_series = [series for series in metrics
                     if series.startswith("repro_router_forwards_total")
                     and 'outcome="ok"' in series]
        assert len(ok_series) >= 2
        assert metrics["repro_router_backends"] == 3


def test_kill_one_backend_mid_run_zero_client_errors(cluster):
    """The acceptance criterion: SIGKILL one of three shards between
    two batches; the router completes everything with no errors."""
    urls = [backend.url for backend in cluster]
    with running_router(urls, forward_timeout=5.0) as router:
        base = f"http://127.0.0.1:{router.port}"
        with ReproClient(base, timeout=30) as client:
            warm = client.predict_batch(
                [{"source": saxpy_variant(100 + i)} for i in range(9)])
            assert all(not isinstance(r, RemoteError) for r in warm)

            victim = cluster[1]
            victim.kill()
            assert not victim.alive()

            # The router has NOT probed yet (first failure is discovered
            # mid-forward) -- the group forward to the dead shard fails,
            # per-item failover re-routes to the survivors.
            after = client.predict_batch(
                [{"source": saxpy_variant(100 + i)} for i in range(9)])
            assert all(not isinstance(r, RemoteError) for r in after), after
            assert all(r.cost for r in after)

            # Single requests keep working too.
            response = client.predict(saxpy_variant(200))
            assert response.cost == "3*n + 10"  # variants add one op

        # A probe that sampled the victim pre-kill can land a stale
        # success; the down state converges within one probe round.
        import time

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            _, health = http_get(router.port, "/healthz")
            report = json.loads(health)
            if not report["backends"][victim.url]["healthy"]:
                break
            time.sleep(0.05)
        assert report["live_backends"] == 2
        assert report["backends"][victim.url]["healthy"] is False
        assert report["status"] == "ok"

        _, text = http_get(router.port, "/metrics")
        metrics = metrics_values(text)
        assert metrics["repro_router_failovers_total"] >= 1
        assert metrics['repro_router_backend_up{shard="%s"}'
                       % victim.url] == 0.0


def test_clean_shutdown_leaves_no_orphans(cluster):
    """Graceful terminate: every process exits and reports a returncode.

    ``cluster`` is module-scoped, so this runs last (file order) and
    doubles as the teardown check; the fixture's terminate() then
    no-ops on already-dead processes.
    """
    survivors = [backend for backend in cluster if backend.alive()]
    assert survivors, "earlier tests killed everything?"
    for backend in survivors:
        returncode = backend.terminate()
        assert returncode is not None
        assert not backend.alive()
