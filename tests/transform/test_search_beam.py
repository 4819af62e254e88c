"""Round-based beam expansion and transposition tables.

``beam_width=1`` reproduces the classic serial expansion exactly, and
a wider beam takes fewer rounds to the same optimum.
"""

import pytest

from repro.aggregate import CostAggregator
from repro.ir import SymbolTable, parse_program
from repro.machine import power_machine
from repro.transform import (
    IncrementalPredictor,
    Interchange,
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
