"""Router behaviour for async jobs: digest affinity, relay, failover,
and the digest-memo LRU cap.
"""

import time

import pytest

from repro.service import JobStore, ReproClient
from repro.service.router import _DigestMemo

from .conftest import (
    SAXPY,
    dead_port,
    http_get,
    metrics_values,
    running_job_server,
    running_router,
    saxpy_variant,
)


def router_client(router):
    return ReproClient(f"http://127.0.0.1:{router.port}")


# ----------------------------------------------------------------------
# digest memo LRU (unit + wire)


def test_digest_memo_is_a_bounded_lru():
    memo = _DigestMemo(maxsize=3)
    digests = [memo.digest(saxpy_variant(i)) for i in range(5)]
    assert len(set(digests)) == 5
    assert len(memo) == 3
    assert memo.evictions == 2
    # Hitting a resident entry refreshes it (LRU, not FIFO): variant 4
    # is resident, so inserting one more evicts variant 2, not 4.
    assert memo.digest(saxpy_variant(4)) == digests[4]
    memo.digest(saxpy_variant(9))
    assert memo.evictions == 3
    assert memo.digest(saxpy_variant(4)) == digests[4]
    assert memo.evictions == 3   # still resident -> no new eviction


def test_digest_memo_eviction_metrics_exported(tmp_path):
    with running_job_server(tmp_path / "store") as backend:
        url = f"http://127.0.0.1:{backend.port}"
        with running_router([url], digest_memo_size=3) as router:
            with router_client(router) as client:
                for i in range(5):
                    client.predict(saxpy_variant(i))
            _, text = http_get(router.port, "/metrics")
            values = metrics_values(text)
            assert values["repro_router_digest_memo_size"] == 3
            assert values["repro_router_digest_memo_entries"] <= 3
            assert values["repro_router_digest_memo_evictions_total"] >= 2


def test_digest_memo_exported_as_a_memo_gauge(tmp_path):
    with running_job_server(tmp_path / "store") as backend:
        url = f"http://127.0.0.1:{backend.port}"
        with running_router([url]) as router:
            with router_client(router) as client:
                client.predict(SAXPY)
            _, text = http_get(router.port, "/metrics")
            values = metrics_values(text)
            assert values['repro_memo_entries{cache="router_digest"}'] >= 1
            assert values['repro_memo_misses_total{cache="router_digest"}'] \
                >= 1


# ----------------------------------------------------------------------
# job routing through the router


@pytest.fixture
def cluster(tmp_path):
    """Two job-enabled shards sharing one store, behind a router."""
    store = tmp_path / "store"
    with running_job_server(store, slots=1, stale_after=0.5) as first:
        with running_job_server(store, slots=1, stale_after=0.5) as second:
            urls = [f"http://127.0.0.1:{first.port}",
                    f"http://127.0.0.1:{second.port}"]
            with running_router(urls) as router:
                yield router, store, (first, second)


def test_job_lifecycle_through_router(cluster):
    router, _, _ = cluster
    with router_client(router) as client:
        submitted = client.submit_restructure(SAXPY, depth=2)
        assert submitted.status in ("queued", "running")
        final = client.wait(submitted.job_id, timeout=30)
        assert final.status == "done"
        assert final.result["sequence"]

        # Events relay through the router byte-for-byte.
        events = list(client.iter_events(submitted.job_id))
        assert events[-1]["final"] is True
        rounds = [e["round"] for e in events if not e.get("final")]
        assert rounds == sorted(set(rounds))

        # Cancel of a finished job answers through the router too.
        cancelled = client.cancel_job(submitted.job_id)
        assert cancelled.status == "done"

    _, text = http_get(router.port, "/metrics")
    values = metrics_values(text)
    assert values['repro_router_jobs_total{route="submit"}'] == 1
    assert values['repro_router_jobs_total{route="status"}'] >= 1
    assert values['repro_router_jobs_total{route="events"}'] == 1
    assert values['repro_router_jobs_total{route="cancel"}'] == 1


def test_follow_streams_live_rounds_through_router(cluster):
    router, _, _ = cluster
    with router_client(router) as client:
        submitted = client.submit_restructure(SAXPY, depth=3,
                                              max_nodes=600)
        seen = list(client.follow(submitted.job_id))
        rounds = [e["round"] for e in seen if not e.get("final")]
        assert rounds == sorted(set(rounds))
        assert seen[-1]["final"] is True
        assert client.wait(submitted.job_id, timeout=10).status == "done"


def test_jobs_never_degrade_to_router_local_engine(tmp_path):
    # Even with local_fallback on, a job request with no live shard is
    # a 503: the router's inline engine has no job store to run it.
    url = f"http://127.0.0.1:{dead_port()}"
    with running_router([url], local_fallback=True,
                        probe_interval=30) as router:
        with router_client(router) as client:
            with pytest.raises(Exception) as excinfo:
                client.submit_restructure(SAXPY)
            assert getattr(excinfo.value, "status", None) == 503
            with pytest.raises(Exception) as excinfo:
                client.job_status("abc.123")
            assert getattr(excinfo.value, "status", None) == 503


def test_orphaned_job_read_through_router_is_adopted(cluster, tmp_path):
    """A job owned by a dead shard finishes on whichever live shard the
    router lands the status read on."""
    router, store_dir, _ = cluster
    store = JobStore(store_dir)
    digest = "f" * 64
    job_id = f"{digest}.orphan42"
    store.create(job_id, {
        "status": "running", "digest": digest, "machine": "power",
        "request": {"source": SAXPY, "machine": "power", "depth": 2,
                    "max_nodes": 200, "beam_width": 1},
        "rounds": 0, "priority": 0, "adopted": 0,
        "owner": "pid:0.deadshard", "heartbeat": time.time() - 3600,
        "created": time.time() - 3600, "cancel_requested": False,
        "best_sequence": None, "best_cost": None,
        "result": None, "error": None,
    })
    with router_client(router) as client:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            record = client.job_status(job_id)
            if record.status == "done":
                break
            time.sleep(0.05)
        assert record.status == "done"
        assert record.adopted >= 1
        assert record.result["sequence"] is not None
