"""E-SEARCH -- performance-guided A* restructuring (section 3.2).

"Based on the symbolic performance comparison, the compiler can utilize
graph search algorithms, such as the A* algorithm, to choose program
transformation sequence systematically."

Runs the best-first search over {unroll, interchange, tile,
distribute, reorder} on two nests and compares against exhaustive
enumeration: the search must reach the same best cost while expanding
fewer nodes.
"""

import repro
from repro.aggregate import CostAggregator
from repro.ir import SymbolTable
from repro.machine import power_machine
from repro.transform import (
    IncrementalPredictor,
    Interchange,
    StripMine,
    Unroll,
    astar_search,
    exhaustive_search,
)

from _report import emit_table

LATENCY_LOOP = """
program daxpyish
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

NEST = """
program sweep
  integer n, i, j
  real a(n,n), b(n,n)
  do i = 1, n
    do j = 1, n
      a(j,i) = b(j,i) + 1.0
    end do
  end do
end
"""


def _predictor(prog):
    return IncrementalPredictor(
        CostAggregator(power_machine(), SymbolTable.from_program(prog))
    )


def _counted(predictor):
    """Count ``predictor.predict`` calls in ``predictor.calls``."""
    predict = predictor.predict
    predictor.calls = 0

    def counted(program):
        predictor.calls += 1
        return predict(program)

    predictor.predict = counted
    return predictor


def _transforms():
    return [Unroll(factors=(2, 4)), Interchange(), StripMine(tiles=(16,))]


def test_search_vs_exhaustive_table(benchmark):
    def run():
        rows = []
        for label, source, workload, max_nodes, beam_width in (
            ("daxpy-like", LATENCY_LOOP, {"n": 1000}, 400, 1),
            ("2-D sweep", NEST, {"n": 100}, 400, 1),
            # The repo benchmark's restructure budget: the node budget,
            # not an empty frontier, ends this search.
            ("daxpy-like, 2 nodes", LATENCY_LOOP, {"n": 1000}, 2, 2),
        ):
            prog = repro.parse_program(source)
            base = _predictor(prog).predict(prog).evaluate(workload)
            astar_predictor = _counted(_predictor(prog))
            astar = astar_search(
                repro.parse_program(source), _transforms(), astar_predictor,
                workload=workload, max_depth=2, max_nodes=max_nodes,
                beam_width=beam_width,
            )
            oracle_predictor = _counted(_predictor(prog))
            oracle = exhaustive_search(
                repro.parse_program(source), _transforms(), oracle_predictor,
                workload=workload, max_depth=2,
            )
            rows.append((
                label,
                float(base),
                float(astar.cost.evaluate(workload)),
                float(oracle.cost.evaluate(workload)),
                astar.nodes_expanded,
                oracle.nodes_expanded,
                astar_predictor.calls,
                oracle_predictor.calls,
                astar.sequence,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_table(
        "E-SEARCH",
        "A* restructuring vs exhaustive enumeration (depth 2)",
        ["program", "original", "A* best", "oracle best",
         "A* nodes", "oracle nodes", "A* predictions", "oracle predictions",
         "A* sequence"],
        rows,
    )
    for (_, base, astar_best, oracle_best, astar_nodes, oracle_nodes,
         astar_predictions, oracle_predictions, _) in rows:
        assert astar_best == oracle_best       # same optimum found
        assert astar_best < base               # and it is a real win
        assert astar_nodes <= oracle_nodes     # with no more work
        assert astar_predictions <= oracle_predictions


def test_search_finds_unroll_for_latency_bound(benchmark):
    def run():
        prog = repro.parse_program(LATENCY_LOOP)
        return astar_search(
            prog, [Unroll(factors=(2, 4))], _predictor(prog),
            workload={"n": 1000}, max_depth=1, max_nodes=50,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert any(s.transformation == "unroll" for s in result.steps)


TWO_REGIONS = """
program two
  integer n, i, j, k
  real x(n), y(n), alpha, a(n,n), b(n,n)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
  do j = 1, n
    do k = 1, n
      a(k,j) = b(k,j) + 1.0
    end do
  end do
end
"""


def test_incremental_makes_search_cheaper(benchmark):
    """Probes touching one region reuse the other region's cached cost."""

    def run():
        prog = repro.parse_program(TWO_REGIONS)
        predictor = _predictor(prog)
        astar_search(
            prog, _transforms(), predictor,
            workload={"n": 64}, max_depth=2, max_nodes=200,
        )
        return predictor.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.hits > 0
    assert stats.hit_rate > 0.1
