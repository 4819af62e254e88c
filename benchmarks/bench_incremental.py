"""E-INCR -- incremental prediction updates (section 3.3.1).

"When choosing among two transformations, only the changes that the
transformations have on the performance expressions need to be
computed."

Measures repeated what-if probing (the inner loop of the restructurer)
with and without the affected-region cache, and verifies that cache
misses after a local transformation stay confined to the changed
region's ancestors.
"""

import statistics
import time

import repro
from repro.aggregate import CostAggregator
from repro.ir import SymbolTable
from repro.machine import power_machine
from repro.transform import IncrementalPredictor, Unroll

from _report import emit_table

REPETITIONS = 7

MANY_REGIONS = """
program regions
  integer n, i1, i2, i3, i4
  real a(n), b(n), c(n), d(n)
  do i1 = 1, n
    a(i1) = a(i1) + 1.0
  end do
  do i2 = 1, n
    b(i2) = b(i2) * 2.0
  end do
  do i3 = 1, n
    c(i3) = c(i3) - 3.0
  end do
  do i4 = 1, n
    d(i4) = d(i4) / 4.0
  end do
end
"""


def _variants(prog, count=24):
    """Probe programs, each unrolling one loop by one factor."""
    unroll = Unroll(factors=(2, 4))
    sites = unroll.sites(prog)
    out = []
    for i in range(count):
        out.append(unroll.apply(prog, sites[i % len(sites)]))
    return out


def test_incremental_probe_speed_table(benchmark):
    def fresh_aggregator(prog):
        return CostAggregator(power_machine(), SymbolTable.from_program(prog))

    def cold_draw():
        """A fresh aggregation of every variant."""
        prog = repro.parse_program(MANY_REGIONS)
        variants = _variants(prog)
        t0 = time.perf_counter()
        for variant in variants:
            fresh_aggregator(prog).cost_program(variant)
        return time.perf_counter() - t0

    def incremental_draw():
        """One predictor shared across the probes."""
        prog = repro.parse_program(MANY_REGIONS)
        variants = _variants(prog)
        predictor = IncrementalPredictor(fresh_aggregator(prog))
        predictor.predict(prog)
        t0 = time.perf_counter()
        for variant in variants:
            predictor.predict(variant)
        return time.perf_counter() - t0, predictor.stats

    def run():
        # One draw of each mode per repetition, interleaved, so host
        # drift lands on both modes alike.
        colds, warms = [], []
        for _ in range(REPETITIONS):
            colds.append(cold_draw())
            elapsed, stats = incremental_draw()
            warms.append(elapsed)
        return colds, warms, stats

    colds, warms, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    cold, warm = statistics.median(colds), statistics.median(warms)

    def spread(draws):
        return (f"{statistics.median(draws) * 1e3:.1f}ms "
                f"({min(draws) * 1e3:.1f}-{max(draws) * 1e3:.1f})")

    emit_table(
        "E-INCR",
        "24 what-if probes on a 4-region program: cold vs incremental",
        ["mode", "time: median (min-max)", "cache hits", "cache misses",
         "hit rate"],
        [
            ("cold re-aggregation", spread(colds), "-", "-", "-"),
            ("incremental", spread(warms), stats.hits,
             stats.misses, f"{stats.hit_rate:.0%}"),
        ],
        notes=f"{REPETITIONS} interleaved repetitions per mode; "
              f"median speedup {cold / warm:.1f}x",
    )
    assert warm < cold
    assert stats.hit_rate > 0.4


def test_incremental_affected_region_confinement(benchmark):
    """A transformation of region 3 must not re-cost regions 1, 2, 4."""

    def run():
        prog = repro.parse_program(MANY_REGIONS)
        predictor = IncrementalPredictor(
            CostAggregator(power_machine(), SymbolTable.from_program(prog))
        )
        predictor.predict(prog)
        before = predictor.stats.misses
        unroll = Unroll(factors=(2,))
        site = [s for s in unroll.sites(prog) if s.path == (2,)][0]
        predictor.predict(unroll.apply(prog, site))
        new_misses = predictor.stats.misses - before
        return new_misses

    new_misses = benchmark.pedantic(run, rounds=1, iterations=1)
    # Misses: the new top-level region list + the one changed loop.
    assert new_misses <= 2


def test_incremental_predict_throughput(benchmark):
    prog = repro.parse_program(MANY_REGIONS)
    predictor = IncrementalPredictor(
        CostAggregator(power_machine(), SymbolTable.from_program(prog))
    )
    predictor.predict(prog)  # warm
    benchmark(lambda: predictor.predict(prog))
