"""Engine behaviour: caching, batching, errors, inline execution."""

import pytest

from repro.cost import reset_placement_cache
from repro.service import (
    CompareRequest,
    KernelsRequest,
    PredictRequest,
    PredictionEngine,
    RestructureRequest,
    ServiceError,
)
from repro.service.engine import _request_to_dict
from repro.transform.incremental import _predictors

SAXPY = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

# Same program, different formatting: must share a cache entry.
SAXPY_REFORMATTED = """
program saxpy
  integer n
  integer i
  real x(n)
  real y(n)
  real alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

DAXPY_VARIANT = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i) + 1.0
  end do
end
"""

MATMUL = """
program mm
  integer n, i, j, k
  real a(n,n), b(n,n), c(n,n)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
"""


def _restructure_item(beam_width=2, depth=2, max_nodes=60):
    return ("restructure", _request_to_dict(RestructureRequest(
        source=MATMUL, workload={"n": 16}, depth=depth,
        max_nodes=max_nodes, beam_width=beam_width)))


@pytest.fixture
def engine():
    with PredictionEngine(workers=0, cache_size=32) as eng:
        yield eng


def test_predict_symbolic_and_point(engine):
    response = engine.predict(
        PredictRequest(source=SAXPY, bindings={"n": 100}))
    assert response.cost == "3*n + 8"
    assert response.cycles == "308"
    assert response.variables == ("n",)
    assert not response.cached


def test_cache_hit_on_identical_request(engine):
    first = engine.predict(PredictRequest(source=SAXPY))
    second = engine.predict(PredictRequest(source=SAXPY))
    assert not first.cached and second.cached
    assert second.cost == first.cost
    assert engine.cache.stats.hits == 1


def test_cache_is_content_addressed(engine):
    first = engine.predict(PredictRequest(source=SAXPY))
    reformatted = engine.predict(PredictRequest(source=SAXPY_REFORMATTED))
    assert reformatted.cached                 # structural equality collides
    assert reformatted.digest == first.digest
    variant = engine.predict(PredictRequest(source=DAXPY_VARIANT))
    assert not variant.cached                 # real change misses
    assert variant.digest != first.digest


def test_cache_key_covers_inputs(engine):
    engine.predict(PredictRequest(source=SAXPY))
    different_machine = engine.predict(
        PredictRequest(source=SAXPY, machine="scalar"))
    different_backend = engine.predict(
        PredictRequest(source=SAXPY, backend="naive"))
    different_point = engine.predict(
        PredictRequest(source=SAXPY, bindings={"n": 7}))
    assert not different_machine.cached
    assert not different_backend.cached
    assert not different_point.cached


def test_batch_preserves_order_and_isolates_errors(engine):
    responses = engine.batch([
        PredictRequest(source=SAXPY),
        PredictRequest(source="this is not fortran ("),
        KernelsRequest(machine="power"),
    ])
    assert responses[0].cost == "3*n + 8"
    assert isinstance(responses[1], ServiceError)
    assert responses[1].envelope["status"] == 400
    assert len(responses[2].rows) >= 10


def test_compare_and_restructure(engine):
    comparison = engine.compare(
        CompareRequest(first=SAXPY, second=DAXPY_VARIANT,
                       domain={"n": [1, 1000]}))
    assert comparison.verdict in ("first_always", "second_always",
                                  "depends", "equal", "unknown")
    assert "verdict:" in comparison.report

    restructured = engine.restructure(
        RestructureRequest(source=SAXPY, workload={"n": 512}, depth=1,
                           max_nodes=50))
    assert restructured.sequence  # "(original)" or a transform chain
    assert restructured.cost


def test_handle_wire_errors(engine):
    missing = engine.handle("predict", {})
    assert missing["error"] == "ProtocolError" and missing["status"] == 400
    unknown_machine = engine.handle(
        "predict", {"source": SAXPY, "machine": "cray"})
    assert unknown_machine["status"] == 400
    bad_kind = engine.handle("frobnicate", {})
    assert bad_kind["status"] == 400


def test_errors_are_not_cached(engine):
    for _ in range(2):
        result = engine.handle("predict", {"source": SAXPY, "machine": "cray"})
        assert "error" in result
    assert len(engine.cache) == 0


def test_persistent_cache_warm_start(tmp_path):
    path = str(tmp_path / "service.jsonl")
    with PredictionEngine(workers=0, cache_size=32, cache_path=path) as eng:
        assert not eng.predict(PredictRequest(source=SAXPY)).cached
    with PredictionEngine(workers=0, cache_size=32, cache_path=path) as eng:
        warmed = eng.predict(PredictRequest(source=SAXPY))
        assert warmed.cached
        assert warmed.cost == "3*n + 8"


def test_metrics_counters(engine):
    engine.predict(PredictRequest(source=SAXPY))
    engine.predict(PredictRequest(source=SAXPY))
    requests = engine.metrics.counter("repro_engine_requests_total")
    assert requests.value(kind="predict", outcome="computed") == 1
    assert requests.value(kind="predict", outcome="cache_hit") == 1
    engine.export_cache_metrics()
    assert engine.metrics.gauge("repro_cache_hits_total").value() == 1


def test_workers_accepts_only_inline_counts():
    with PredictionEngine(workers=1, cache_size=8) as eng:
        assert eng.predict(PredictRequest(source=SAXPY)).cost == "3*n + 8"
    with pytest.raises(ValueError, match="repro route"):
        PredictionEngine(workers=2)


# ----------------------------------------------------------------------
# cost-table fingerprints in cache keys


def test_cache_key_includes_cost_table_fingerprint(engine, monkeypatch):
    from repro.machine import registry as registry_mod
    from repro.machine.registry import get_machine

    first = engine.predict(PredictRequest(source=SAXPY))
    assert engine.predict(PredictRequest(source=SAXPY)).cached

    # Simulate recalibration: same machine name, different fingerprint.
    machine = get_machine("power")
    registry_mod._FINGERPRINT_MEMO.pop("power", None)
    monkeypatch.setattr(type(machine), "fingerprint",
                        lambda self: "deadbeefdeadbeef")
    try:
        recalibrated = engine.predict(PredictRequest(source=SAXPY))
    finally:
        registry_mod._FINGERPRINT_MEMO.pop("power", None)
    assert not recalibrated.cached        # stale entry no longer matches
    assert recalibrated.cost == first.cost


def test_fingerprint_covers_cost_table():
    from repro.machine.machine import cost_table_fingerprint
    from repro.machine.registry import get_machine

    power = get_machine("power")
    risc = get_machine("alpha")
    assert cost_table_fingerprint(power) != cost_table_fingerprint(risc)
    assert cost_table_fingerprint(power) == power.fingerprint()
    assert len(power.fingerprint()) == 16


# ----------------------------------------------------------------------
# tracing through the engine


def test_trace_block_on_request(engine):
    # The shared predictor pool and the placement memo both
    # short-circuit repeat work; start cold so the full pipeline (and
    # its spans) actually runs.
    _predictors.clear()
    reset_placement_cache()
    response = engine.predict(PredictRequest(source=SAXPY, trace=True))
    names = {span["name"] for span in response.trace}
    assert {"predict", "translate.specialize", "cost.place",
            "aggregate.loop"} <= names


def test_untraced_request_has_no_trace_block(engine):
    result = engine.handle("predict", {"source": SAXPY})
    assert "trace" not in result


def test_cached_response_stays_trace_free(engine):
    engine.predict(PredictRequest(source=SAXPY, trace=True))
    hit = engine.predict(PredictRequest(source=SAXPY, trace=True))
    assert hit.cached
    # A hit never re-runs the pipeline; it reports only the lookup.
    assert [span["name"] for span in hit.trace] == ["engine.execute"]
    assert hit.trace[0]["attrs"]["cached"] is True


def test_engine_ingests_spans_into_active_tracer(engine):
    from repro.obs import Tracer

    _predictors.clear()
    reset_placement_cache()
    tracer = Tracer(metrics=engine.metrics)
    with tracer.activate():
        engine.handle("predict", {"source": SAXPY})
    names = [span["name"] for span in tracer.export()]
    assert "engine.execute" in names
    assert "cost.place" in names
    histogram = engine.metrics.histogram("repro_phase_seconds")
    assert histogram.count(phase="cost.place") > 0


def test_cache_lookup_counters_by_endpoint(engine):
    engine.handle("predict", {"source": SAXPY})
    engine.handle("predict", {"source": SAXPY})
    lookups = engine.metrics.counter("repro_cache_requests_total")
    assert lookups.value(endpoint="predict", result="miss") == 1
    assert lookups.value(endpoint="predict", result="hit") == 1


def test_entry_age_histogram_snapshots_current_residents(engine):
    engine.handle("predict", {"source": SAXPY})
    engine.export_cache_metrics()
    ages = engine.metrics.histogram("repro_cache_entry_age_seconds")
    assert ages.count(endpoint="predict") == 1
    engine.export_cache_metrics()      # re-scrape must not double-count
    assert ages.count(endpoint="predict") == 1


def test_eviction_telemetry(tmp_path):
    with PredictionEngine(workers=0, cache_size=1) as engine:
        engine.handle("predict", {"source": SAXPY})
        engine.handle("predict", {"source": DAXPY_VARIANT})
        evictions = engine.metrics.counter(
            "repro_cache_endpoint_evictions_total")
        assert evictions.value(endpoint="predict") == 1
        age_hist = engine.metrics.histogram("repro_cache_evicted_age_seconds")
        assert age_hist.count(endpoint="predict") == 1


def test_batch_dedups_identical_misses(engine):
    """Three identical predicts in one batch: one execution, three answers."""
    batch = [("predict", {"source": SAXPY})] * 3 + \
            [("predict", {"source": DAXPY_VARIANT})]
    results = engine.handle_batch(batch)
    assert all("error" not in r for r in results)
    assert results[0]["cost"] == results[1]["cost"] == results[2]["cost"]
    requests = engine.metrics.counter("repro_engine_requests_total")
    assert requests.value(kind="predict", outcome="computed") == 2
    assert requests.value(kind="predict", outcome="deduplicated") == 2
    lookups = engine.metrics.counter("repro_cache_requests_total")
    assert lookups.value(endpoint="predict", result="miss") == 2
    assert lookups.value(endpoint="predict", result="deduplicated") == 2
    # The representative's answer landed in the cache exactly once.
    assert engine.handle("predict", {"source": SAXPY})["cached"]


def test_batch_dedup_keeps_traced_duplicates_separate(engine):
    """A trace-requesting duplicate computes on its own (honest trace)."""
    results = engine.handle_batch([
        ("predict", {"source": SAXPY}),
        ("predict", {"source": SAXPY, "trace": True}),
    ])
    assert "trace" not in results[0]
    assert results[1]["trace"]          # its own spans, not a copy
    requests = engine.metrics.counter("repro_engine_requests_total")
    assert requests.value(kind="predict", outcome="deduplicated") == 0


@pytest.mark.parametrize("item, parses", [
    (("predict", {"source": SAXPY, "bindings": {"n": 7}}), 1),
    (_restructure_item(max_nodes=6), 1),
    (("compare", {"first": SAXPY, "second": DAXPY_VARIANT}), 2),
])
def test_each_request_is_decoded_and_parsed_once(engine, monkeypatch, item,
                                                 parses):
    """A miss reuses the request and programs its cache key parsed."""
    from repro.service import engine as engine_mod

    calls = {"decode": 0, "parse": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine_mod, "request_from_dict",
                        counting("decode", engine_mod.request_from_dict))
    monkeypatch.setattr(engine_mod, "parse_program",
                        counting("parse", engine_mod.parse_program))
    assert not engine.handle(*item)["cached"]
    assert calls == {"decode": 1, "parse": parses}
    assert engine.handle(*item)["cached"]
    assert calls == {"decode": 2, "parse": 2 * parses}


def test_beam_width_is_part_of_the_cache_key():
    with PredictionEngine(workers=0) as engine:
        narrow = engine.handle(*_restructure_item(beam_width=1))
        wide = engine.handle(*_restructure_item(beam_width=4))
        assert not narrow["cached"]
        assert not wide["cached"]          # different beam -> different key
        assert engine.handle(*_restructure_item(beam_width=4))["cached"]


def test_placement_cache_metrics_exposed():
    # Cold caches all the way down: a warm IncrementalPredictor would
    # answer the whole search from memory without placing any stream.
    _predictors.clear()
    reset_placement_cache()
    with PredictionEngine(workers=0) as engine:
        engine.handle(*_restructure_item())
        counter = engine.metrics.counter(
            "repro_placement_cache_requests_total")
        assert counter.value(result="miss") > 0
        # A search revisits mostly-identical bodies, so hits dominate.
        assert counter.value(result="hit") > counter.value(result="miss")
        engine.export_cache_metrics()
        entries = engine.metrics.gauge("repro_placement_cache_entries")
        assert entries.value() > 0


def test_memo_gauges_cover_the_engine_caches(engine):
    from repro.service import SweepRequest
    from repro.service.metrics import parse_exposition

    engine.predict(PredictRequest(source=SAXPY, bindings={"n": 100}))
    engine.sweep(SweepRequest(source=SAXPY, widths=[1, 2],
                              bindings={"n": 64}))
    engine.restructure(RestructureRequest(source=SAXPY, workload={"n": 512},
                                          depth=1, max_nodes=20))
    engine.export_cache_metrics()
    families = parse_exposition(engine.metrics.render())
    entries = {dict(sample.labels)["cache"]: sample.value
               for sample in families["repro_memo_entries"].samples}
    assert {"result", "trace", "placement", "compiled_ops", "family_member",
            "sweep_symbolic", "predictor"} <= set(entries)
    assert entries["result"] >= 3
    for family in ("repro_memo_hits_total", "repro_memo_misses_total",
                   "repro_memo_evictions_total"):
        assert {dict(s.labels)["cache"] for s in families[family].samples} \
            == set(entries)
