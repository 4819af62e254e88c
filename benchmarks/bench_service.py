"""E-SERVICE -- serving-layer throughput: the result cache.

A content-addressed result cache answers repeated requests without
recomputation.  This benchmark measures it on the Figure 7 kernel
suite: cold single requests vs a warm-cache batch (the acceptance bar
is warm batch throughput >= 5x cold single-request throughput).
"""

import time

from repro.bench.kernels import KERNELS
from repro.service import PredictRequest, PredictionEngine

from _report import emit_table

REPEAT_WARM = 20


def _requests():
    # Distinct evaluation points make every (program, point) pair a
    # distinct cache entry, like distinct clients would.
    return [
        PredictRequest(source=k.source, bindings={"n": 256})
        for k in KERNELS.values()
    ]


def test_service_cold_vs_warm_cache(benchmark):
    def run():
        # "Cold" means cold all the way down: earlier benchmarks in the
        # same process leave the shared predictor and placement memos
        # warm, which would flatter the cold phase.
        from repro.cost import reset_placement_cache
        from repro.transform.incremental import _predictors
        _predictors.clear()
        reset_placement_cache()

        requests = _requests()
        engine = PredictionEngine(workers=0, cache_size=256)

        # Cold: every request computed one at a time, empty cache.
        t0 = time.perf_counter()
        for request in requests:
            engine.predict(request)
        cold = time.perf_counter() - t0
        cold_rps = len(requests) / cold

        # Warm: the same batch over and over, all cache hits.
        t0 = time.perf_counter()
        for _ in range(REPEAT_WARM):
            engine.batch(requests)
        warm = time.perf_counter() - t0
        warm_rps = REPEAT_WARM * len(requests) / warm

        engine.close()
        return cold_rps, warm_rps, engine.cache.stats

    cold_rps, warm_rps, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = warm_rps / cold_rps
    emit_table(
        "E-SERVICE",
        f"Figure 7 suite over the service layer ({len(KERNELS)} kernels)",
        ["mode", "requests/s", "speedup", "cache hits", "cache misses"],
        [
            ("cold, single requests", f"{cold_rps:.0f}", "1.0x",
             "-", stats.misses),
            (f"warm batch x{REPEAT_WARM}", f"{warm_rps:.0f}",
             f"{speedup:.1f}x", stats.hits, "-"),
        ],
        notes=f"warm/cold throughput = {speedup:.1f}x (acceptance: >= 5x)",
    )
    assert speedup >= 5.0
