"""Job subsystem core: store durability, manager lifecycle, adoption.

Everything here runs against inline engines (``workers=0``) and real
store directories -- no HTTP.  The wire surface is covered by
``test_jobs_http.py`` / ``test_jobs_router.py``; the search-level
bit-identical resume property by
``tests/transform/test_search_checkpoint.py``.
"""

import json
import threading
import time

import pytest

from repro.service import PredictionEngine
from repro.service.engine import _machine_fingerprint
from repro.service.jobs import (
    JobManager,
    TERMINAL_STATUSES,
    _params_key,
    job_affinity_key,
    parse_job_path,
    public_view,
)
from repro.service.jobstore import CHECKPOINT_VERSION, JobStore, valid_job_id
from repro.service.protocol import request_from_dict

from .conftest import SAXPY, saxpy_variant

TWO_LOOPS = """
program two
  integer n, i, j
  real x(n), y(n), z(n)
  do i = 1, n
    y(i) = y(i) + 2.0 * x(i)
  end do
  do j = 1, n
    z(j) = z(j) + y(j)
  end do
end
"""


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


@pytest.fixture
def engine():
    instance = PredictionEngine(workers=0, cache_size=64)
    yield instance
    instance.close()


def make_manager(engine, tmp_path, **kwargs):
    kwargs.setdefault("slots", 1)
    return JobManager(engine, JobStore(tmp_path / "jobs"), **kwargs)


# ----------------------------------------------------------------------
# path / id helpers


def test_job_affinity_key_is_digest_prefix():
    assert job_affinity_key("abc123.deadbeef") == "abc123"
    assert job_affinity_key("noprefix") == "noprefix"


def test_parse_job_path():
    assert parse_job_path("/restructure/jobs/j1") == ("j1", False)
    assert parse_job_path("/restructure/jobs/j1/events") == ("j1", True)
    assert parse_job_path("/restructure/jobs") is None
    assert parse_job_path("/restructure") is None


def test_valid_job_id_rejects_path_traversal():
    assert valid_job_id("abc.123")
    assert not valid_job_id("../etc/passwd")
    assert not valid_job_id("a/b")
    assert not valid_job_id("")
    assert not valid_job_id(".hidden")
    assert not valid_job_id("x" * 200)


# ----------------------------------------------------------------------
# store


def test_store_record_roundtrip_and_update(tmp_path):
    store = JobStore(tmp_path)
    record = store.create("d.1", {"status": "queued", "rounds": 0})
    assert record["job_id"] == "d.1"
    assert store.get("d.1")["status"] == "queued"
    updated = store.update("d.1", status="running", rounds=2)
    assert updated["rounds"] == 2
    assert store.get("d.1")["status"] == "running"
    assert store.update("missing.1", status="running") is None
    assert store.get("missing.1") is None
    store.delete("d.1")
    assert store.get("d.1") is None


def test_store_events_dedup_from_round_and_torn_tail(tmp_path):
    store = JobStore(tmp_path)
    store.append_event("d.1", {"round": 1, "best_cost": "a"})
    store.append_event("d.1", {"round": 2, "best_cost": "b"})
    # A second writer (brief double-ownership) repeats round 2 with a
    # different payload: first write must win.
    store.append_event("d.1", {"round": 2, "best_cost": "b-dup"})
    store.append_event("d.1", {"round": 3, "best_cost": "c"})
    store.append_event("d.1", {"final": True, "status": "done", "round": 3})
    # Torn tail after a crash mid-append: never fatal, never yielded.
    with open(store.events_path("d.1"), "a") as handle:
        handle.write('{"round": 4, "best')

    events = store.events("d.1")
    rounds = [e["round"] for e in events if not e.get("final")]
    assert rounds == [1, 2, 3]
    assert [e for e in events if e["round"] == 2][0]["best_cost"] == "b"
    assert events[-1]["final"] is True

    resumed = store.events("d.1", from_round=2)
    assert [e["round"] for e in resumed if not e.get("final")] == [3]
    assert resumed[-1]["final"] is True


def test_checkpoint_compat_is_strict(tmp_path):
    store = JobStore(tmp_path)
    kwargs = dict(digest="d", fingerprint="f", params_key="p")
    store.save_checkpoint("d.1", rounds=3, state={"frontier": [1, 2]},
                          **kwargs)
    rounds, state = store.load_checkpoint("d.1", **kwargs)
    assert rounds == 3 and state == {"frontier": [1, 2]}

    for drift in ({"digest": "other"}, {"fingerprint": "other"},
                  {"params_key": "other"}):
        assert store.load_checkpoint("d.1", **{**kwargs, **drift}) is None

    # Version drift: rewrite the envelope with a bumped version.
    with open(store.checkpoint_path("d.1")) as handle:
        envelope = json.load(handle)
    envelope["version"] = CHECKPOINT_VERSION + 1
    with open(store.checkpoint_path("d.1"), "w") as handle:
        handle.write(json.dumps(envelope))
    assert store.load_checkpoint("d.1", **kwargs) is None

    store.drop_checkpoint("d.1")


# ----------------------------------------------------------------------
# manager lifecycle


def test_submit_runs_to_done_and_warms_result_cache(engine, tmp_path):
    manager = make_manager(engine, tmp_path).start()
    try:
        record = manager.submit({"source": SAXPY, "depth": 2})
        job_id = record["job_id"]
        assert record["status"] == "queued"
        assert job_affinity_key(job_id) == record["digest"]

        done = wait_for(lambda: (manager.status(job_id) or {}).get(
            "status") in TERMINAL_STATUSES)
        final = manager.status(job_id)
        assert done and final["status"] == "done"
        assert final["result"]["sequence"]
        assert final["rounds"] >= 1

        events = manager.events(job_id)
        rounds = [e["round"] for e in events if not e.get("final")]
        assert rounds == sorted(set(rounds))
        assert events[-1]["final"] and events[-1]["status"] == "done"
        # Checkpoint is dropped once the job is terminal.
        assert manager.store.load_checkpoint(
            job_id, digest=final["digest"],
            fingerprint=_machine_fingerprint("power"),
            params_key="") is None

        # The sync endpoint must now hit the cache with the same answer.
        sync = engine.handle("restructure", {"source": SAXPY, "depth": 2})
        assert sync["cached"] is True
        assert sync["sequence"] == final["result"]["sequence"]
        assert sync["cost"] == final["result"]["cost"]
    finally:
        manager.close()


def test_job_cache_warming_counts_its_eviction(tmp_path):
    with PredictionEngine(workers=0, cache_size=1) as engine:
        engine.handle("predict", {"source": SAXPY})
        manager = make_manager(engine, tmp_path).start()
        try:
            job_id = manager.submit({"source": SAXPY, "depth": 1})["job_id"]
            wait_for(lambda: (manager.status(job_id) or {}).get(
                "status") in TERMINAL_STATUSES)
            assert manager.status(job_id)["status"] == "done"
        finally:
            manager.close()
        evictions = engine.metrics.counter(
            "repro_cache_endpoint_evictions_total")
        assert evictions.value(endpoint="predict") == 1
        assert evictions.value(endpoint="predict") == \
            engine.cache.stats.evictions
        ages = engine.metrics.histogram("repro_cache_evicted_age_seconds")
        assert ages.count(endpoint="predict") == 1


def test_public_view_hides_internal_fields(engine, tmp_path):
    manager = make_manager(engine, tmp_path)
    record = manager.submit({"source": SAXPY})
    view = public_view(record)
    assert view["job_id"] == record["job_id"]
    assert view["status"] == "queued"
    assert "request" not in view
    assert "heartbeat" not in view
    assert "cancel_requested" not in view
    manager.close()


def test_submit_rejects_bad_payloads(engine, tmp_path):
    manager = make_manager(engine, tmp_path)
    with pytest.raises(Exception):
        manager.submit({"source": SAXPY, "priority": 99})
    with pytest.raises(Exception):
        manager.submit({"source": SAXPY, "machine": "nonsense"})
    with pytest.raises(Exception):
        manager.submit({"source": "not fortran ("})
    with pytest.raises(Exception):
        manager.submit({"source": SAXPY, "trace": True})  # no trace on jobs
    manager.close()


def test_priority_orders_the_queue(engine, tmp_path):
    # Manager not started: the heap is inspectable before any pop.
    manager = make_manager(engine, tmp_path)
    low = manager.submit({"source": saxpy_variant(1), "priority": -5})
    high = manager.submit({"source": saxpy_variant(2), "priority": 5})
    mid = manager.submit({"source": saxpy_variant(3)})
    import heapq

    order = []
    while manager._queue:
        order.append(heapq.heappop(manager._queue)[2])
    assert order == [high["job_id"], mid["job_id"], low["job_id"]]
    manager.close()


def test_cancel_queued_job_finalizes_immediately(engine, tmp_path):
    manager = make_manager(engine, tmp_path)   # not started: stays queued
    record = manager.submit({"source": SAXPY})
    job_id = record["job_id"]
    cancelled = manager.cancel(job_id)
    assert cancelled["status"] == "cancelled"
    events = manager.events(job_id)
    assert events and events[-1]["final"]
    assert events[-1]["status"] == "cancelled"
    # Cancelling a terminal job is a no-op returning the record.
    assert manager.cancel(job_id)["status"] == "cancelled"
    assert manager.cancel("nope.1") is None
    manager.close()


def test_cancel_running_job_stops_at_round_boundary(engine, tmp_path):
    manager = make_manager(engine, tmp_path).start()
    try:
        record = manager.submit({
            "source": TWO_LOOPS, "depth": 6, "max_nodes": 4000,
            "beam_width": 1,
        })
        job_id = record["job_id"]
        wait_for(lambda: (manager.status(job_id) or {}).get("rounds", 0) >= 1)
        state = manager.status(job_id)
        if state["status"] in TERMINAL_STATUSES:
            pytest.skip("search finished before cancel could land")
        manager.cancel(job_id)
        wait_for(lambda: (manager.status(job_id) or {}).get(
            "status") in TERMINAL_STATUSES)
        final = manager.status(job_id)
        assert final["status"] == "cancelled"
        assert manager.events(job_id)[-1]["status"] == "cancelled"
    finally:
        manager.close()


@pytest.mark.parametrize("outcome", ["done", "cancelled", "error"])
def test_final_event_is_logged_before_the_terminal_status(
        engine, tmp_path, monkeypatch, outcome):
    """A reader that sees a terminal status finds the final event."""
    manager = make_manager(engine, tmp_path)
    store = manager.store
    real_update = store.update
    terminal_writes = []

    def spy(job_id, **fields):
        finals = [e for e in store.events(job_id) if e.get("final")]
        record = real_update(job_id, **fields)
        if fields.get("status") in TERMINAL_STATUSES:
            terminal_writes.append((fields["status"], finals))
        return record

    monkeypatch.setattr(store, "update", spy)
    if outcome == "error":
        monkeypatch.setattr(engine, "run_restructure_job", lambda *a, **k: {
            "error": "SearchError", "message": "boom", "status": 500})
    job_id = manager.submit({"source": SAXPY, "depth": 2})["job_id"]
    try:
        if outcome == "cancelled":
            manager.cancel(job_id)   # queued here: finalized at once
        else:
            manager.start()
        wait_for(lambda: terminal_writes)
        assert manager.status(job_id)["status"] == outcome
    finally:
        manager.close()
    [(status, finals)] = terminal_writes
    assert status == outcome
    assert [e["status"] for e in finals] == [outcome]


def orphan_job(store, engine, payload, stop_after):
    """A job record as a SIGKILLed shard would leave it.

    Runs the search for real but stops it after ``stop_after`` rounds,
    persisting the events and checkpoint exactly as a runner would,
    then writes a ``running`` record owned by a dead process with a
    stale heartbeat.
    """
    request = request_from_dict("restructure_job", payload)
    restructure = request.to_restructure()
    from repro.ir.digest import program_digest
    from repro.ir.parser import parse_program

    digest = program_digest(parse_program(request.source))
    fingerprint = _machine_fingerprint(request.machine)
    params = _params_key(restructure)
    job_id = f"{digest}.orphan01"

    def on_round(progress):
        store.append_event(job_id, {
            "job_id": job_id, "round": progress.round,
            "best_sequence": progress.best_sequence,
            "best_cost": str(progress.best_cost),
            "expanded": progress.expanded,
            "frontier_size": progress.frontier_size,
        })
        store.save_checkpoint(
            job_id, digest=digest, fingerprint=fingerprint,
            params_key=params, rounds=progress.round,
            state=progress.checkpoint)
        return progress.round < stop_after

    partial = engine.run_restructure_job(restructure, on_round=on_round)
    assert "error" not in partial
    store.create(job_id, {
        "status": "running", "digest": digest,
        "machine": request.machine, "priority": request.priority,
        "request": dict(payload),
        "owner": "pid:0.deadshard", "heartbeat": time.time() - 3600,
        "created": time.time() - 3600, "rounds": stop_after,
        "adopted": 0, "cancel_requested": False,
        "best_sequence": None, "best_cost": None,
        "result": None, "error": None,
    })
    return job_id


def test_stale_job_is_adopted_and_resumed_to_the_same_answer(tmp_path):
    payload = {"source": TWO_LOOPS, "depth": 3, "max_nodes": 400}
    baseline_engine = PredictionEngine(workers=0, cache_size=64)
    baseline = baseline_engine.run_restructure_job(
        request_from_dict("restructure_job", payload).to_restructure())
    baseline_engine.close()
    assert "error" not in baseline

    engine = PredictionEngine(workers=0, cache_size=64)
    store = JobStore(tmp_path / "jobs")
    job_id = orphan_job(store, engine, payload, stop_after=2)

    manager = JobManager(engine, store, slots=1, stale_after=0.1)
    manager.start()
    try:
        # A status read is the adoption hook (the router lands reads for
        # a dead shard's jobs on its successor, which calls this).
        adopted = manager.status(job_id)
        assert adopted["owner"] == manager.owner
        assert adopted["adopted"] == 1

        wait_for(lambda: (manager.status(job_id) or {}).get(
            "status") in TERMINAL_STATUSES)
        final = manager.status(job_id)
        assert final["status"] == "done"

        # Resumed answer is bit-identical to the uninterrupted run.
        assert final["result"]["sequence"] == baseline["sequence"]
        assert final["result"]["cost"] == baseline["cost"]
        assert final["result"]["program"] == baseline["program"]

        # The event log carries every round exactly once: 1..K from the
        # dead shard, K+1.. from the adopter, no overlap.
        events = manager.events(job_id)
        rounds = [e["round"] for e in events if not e.get("final")]
        assert rounds == sorted(set(rounds))
        assert rounds[0] == 1
        assert rounds == list(range(1, rounds[-1] + 1))
        assert events[-1]["final"] and events[-1]["status"] == "done"
    finally:
        manager.close()
        engine.close()


def test_jobs_running_locally_are_never_adopted(engine, tmp_path):
    manager = make_manager(engine, tmp_path, stale_after=0.01)
    # Not started: the job sits in _local as queued with an aging
    # heartbeat; a status read from the SAME process must not bump
    # adopted (only another process's manager may).
    record = manager.submit({"source": SAXPY})
    time.sleep(0.05)
    seen = manager.status(record["job_id"])
    assert seen["adopted"] == 0
    assert seen["status"] == "queued"
    manager.close()


def test_concurrent_submits_all_complete(engine, tmp_path):
    manager = make_manager(engine, tmp_path, slots=2).start()
    try:
        ids = []
        lock = threading.Lock()

        def submit(index):
            record = manager.submit({"source": saxpy_variant(index)})
            with lock:
                ids.append(record["job_id"])

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(ids)) == 6

        wait_for(lambda: all(
            (manager.status(job_id) or {}).get("status") == "done"
            for job_id in ids))
        for job_id in ids:
            events = manager.events(job_id)
            assert events[-1]["final"]
    finally:
        manager.close()


def test_export_metrics_publishes_gauges(engine, tmp_path):
    manager = make_manager(engine, tmp_path, slots=3)
    manager.export_metrics()
    rendered = engine.metrics.render()
    assert "repro_job_slots 3" in rendered
    assert "repro_jobs_queued 0" in rendered
    assert "repro_jobs_running 0" in rendered
    manager.close()
