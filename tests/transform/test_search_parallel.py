"""Round-based beam expansion, transposition tables, and the pool path.

The load-bearing property: for a given ``beam_width``, the search's
result (sequence, cost, node counts) is identical no matter where the
candidate batches are evaluated -- inline, through a caller-supplied
``evaluate_batch``, or on a :class:`SearchPool` -- and ``beam_width=1``
reproduces the classic serial expansion exactly.
"""

import pytest

from repro.aggregate import CostAggregator
from repro.ir import SymbolTable, parse_program
from repro.machine import power_machine
from repro.transform import (
    IncrementalPredictor,
    Interchange,
    SearchPool,
    StripMine,
    TranspositionTable,
    Unroll,
    astar_search,
    exhaustive_search,
)

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

WORKLOAD = {"n": 64}


def _predictor(program):
    return IncrementalPredictor(
        CostAggregator(power_machine(), SymbolTable.from_program(program))
    )


def _transforms():
    return [Unroll(factors=(2, 4)), Interchange(), StripMine(tiles=(16,))]


def _search(**kwargs):
    program = parse_program(NEST)
    return astar_search(
        program, _transforms(), _predictor(program),
        workload=WORKLOAD, max_depth=2, max_nodes=120, **kwargs,
    )


def _fingerprint(result):
    return (result.sequence, str(result.cost), result.nodes_expanded,
            result.nodes_generated)


def test_beam_width_one_is_the_serial_search():
    assert _fingerprint(_search()) == _fingerprint(_search(beam_width=1))


@pytest.mark.parametrize("beam_width", [2, 4])
def test_evaluate_batch_is_bit_identical(beam_width):
    serial = _search(beam_width=beam_width)

    program = parse_program(NEST)
    predictor = _predictor(program)
    calls = []

    def evaluate(programs):
        calls.append(len(programs))
        return [predictor.predict(p) for p in programs]

    batched = astar_search(
        parse_program(NEST), _transforms(), _predictor(program),
        workload=WORKLOAD, max_depth=2, max_nodes=120,
        beam_width=beam_width, evaluate_batch=evaluate,
    )
    assert _fingerprint(batched) == _fingerprint(serial)
    assert calls and max(calls) > 1     # rounds really batch


def test_search_pool_matches_serial():
    serial = _search(beam_width=4)
    program = parse_program(NEST)
    with SearchPool(program, power_machine(), workers=2,
                    executor="thread") as pool:
        pooled = astar_search(
            program, _transforms(), _predictor(program),
            workload=WORKLOAD, max_depth=2, max_nodes=120,
            beam_width=4, evaluate_batch=pool.evaluate,
        )
    assert _fingerprint(pooled) == _fingerprint(serial)


def test_search_workers_spawns_and_closes_its_own_pool():
    serial = _search(beam_width=4)
    parallel = _search(beam_width=4, search_workers=2)
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_wider_beam_still_finds_the_optimum():
    narrow = _search(beam_width=1)
    wide = _search(beam_width=8)
    assert str(wide.cost) == str(narrow.cost)
    assert wide.rounds < narrow.rounds


def test_transposition_table_carries_across_searches():
    program = parse_program(NEST)
    predictor = _predictor(program)
    table = TranspositionTable()
    first = astar_search(
        program, _transforms(), predictor,
        workload=WORKLOAD, max_depth=2, max_nodes=120, table=table,
    )
    filled = len(table)
    assert filled > 0

    # The exhaustive oracle over the same space re-predicts nothing new
    # for states A* already costed.
    before_misses = table.misses
    oracle = exhaustive_search(
        program, _transforms(), predictor, WORKLOAD,
        max_depth=2, table=table,
    )
    assert str(oracle.cost) == str(first.cost)
    assert table.hits > 0
    assert table.misses - before_misses <= len(table) - filled + 1


def test_invalid_beam_width_rejected():
    with pytest.raises(ValueError):
        _search(beam_width=0)


def test_search_pool_degrades_inline_on_pool_failure():
    """A failing executor must not kill the search -- it goes inline."""
    import pickle

    class BrokenPool:
        def submit(self, *args, **kwargs):
            raise pickle.PicklingError("nope")

    program = parse_program(NEST)
    pool = SearchPool(program, power_machine(), workers=2, pool=BrokenPool())
    costs = pool.evaluate([parse_program(NEST)])
    assert len(costs) == 1
    assert pool.workers == 1        # degraded for the rest of the search

    reference = _predictor(program).predict(parse_program(NEST))
    assert str(costs[0]) == str(reference)
    pool.close()


def test_evaluate_dedups_identical_candidates(monkeypatch):
    """Identical programs in one batch are predicted once, answered thrice."""
    from repro.transform import parallel as parallel_mod

    program = parse_program(NEST)
    seen = []
    real = parallel_mod.evaluate_chunk

    def spy(root, root_key, machine, programs):
        seen.append(len(programs))
        return real(root, root_key, machine, programs)

    monkeypatch.setattr(parallel_mod, "evaluate_chunk", spy)
    pool = SearchPool(program, power_machine(), workers=1)
    costs = pool.evaluate([program, parse_program(NEST), program])
    pool.close()
    assert sum(seen) == 1               # one unique candidate evaluated
    assert len(costs) == 3
    assert str(costs[0]) == str(costs[1]) == str(costs[2])
