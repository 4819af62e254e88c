"""The node budget: the round that spends it generates nothing.

A search stops once it has popped ``max_nodes`` states, and the
incumbent changes only on a pop.  So the successors of the round (or,
in exhaustive search, the pop) that spends the budget could never
reach an answer, and the search neither generates nor predicts them.
These tests pin that rule, and pin the answers to the ones the search
gave while it still predicted those successors.
"""

import hashlib

import pytest

from repro.aggregate import CostAggregator
from repro.ir import SymbolTable, parse_program
from repro.ir.printer import print_program
from repro.machine import power_machine
from repro.service import PredictionEngine, RestructureRequest
from repro.service.engine import _restructure_transformations
from repro.transform import (
    IncrementalPredictor,
    Interchange,
    StripMine,
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

PAIR = """
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

SAXPY = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

WORKLOAD = {"n": 64}

#: Each program with the transformations it is searched over: ``PAIR``
#: gets the service's full set.
PROGRAMS = {
    "nest": (NEST, lambda: [Unroll(factors=(2, 4)), Interchange(),
                            StripMine(tiles=(16,))]),
    "pair": (PAIR, _restructure_transformations),
}

#: Winning answers: (sequence, cost, the first 12 hex digits of the
#: printed program's SHA-256).
ANSWERS = {
    "N0": ("(original)", "3*n^2 + 9*n + 2", "439a61893e0d"),
    "N1": ("unroll j-loop x2", "2*n^2 + 11*n + 2", "8a091b3a41da"),
    "N2": ("unroll j-loop x2 ; interchange i<->j", "2*n^2 + 13/2*n + 13/2",
           "79ea4537eb0c"),
    "T0": ("(original)", "3*n^2 + 12*n + 10", "9bbec98213de"),
    "T1": ("unroll-and-jam j x2 into k", "2*n^2 + 19/2*n + 29/2",
           "53a701ee7e89"),
    "T2": ("unroll-and-jam j x2 into k ; unroll i-loop x2",
           "2*n^2 + 17/2*n + 43/2", "5829157ede67"),
}

#: GOLDEN[(program, max_depth)][max_nodes - 1]: the answers of A* at
#: beam widths 1, 2 and 3, then of exhaustive search.  Recorded while
#: the budget-spending round still predicted its successors.
GOLDEN = {
    ("nest", 1): ["N0 N0 N0 N0", "N1 N1 N1 N0", "N1 N1 N1 N0", "N1 N1 N1 N0"],
    ("nest", 2): ["N0 N0 N0 N0", "N1 N1 N1 N0", "N2 N1 N1 N0", "N2 N2 N1 N0"],
    ("nest", 3): ["N0 N0 N0 N0", "N1 N1 N1 N0", "N2 N1 N1 N0", "N2 N2 N1 N0"],
    ("pair", 1): ["T0 T0 T0 T0", "T1 T1 T1 T0", "T1 T1 T1 T0", "T1 T1 T1 T0"],
    ("pair", 2): ["T0 T0 T0 T0", "T1 T1 T1 T0", "T2 T1 T1 T0", "T2 T2 T1 T0"],
    ("pair", 3): ["T0 T0 T0 T0", "T1 T1 T1 T0", "T2 T1 T1 T0", "T2 T2 T1 T0"],
}


class Spy:
    """Counts predictions and ``sites`` calls, and snapshots them per round."""

    def __init__(self, predictor, transformations):
        self.predictions = 0
        self.sites = 0
        self.rounds = [(0, 0)]
        predict = predictor.predict

        def counted_predict(program):
            self.predictions += 1
            return predict(program)

        predictor.predict = counted_predict
        for transformation in transformations:
            transformation.sites = self._counted_sites(transformation.sites)

    def _counted_sites(self, sites):
        def counted(program):
            self.sites += 1
            return sites(program)
        return counted

    def on_round(self, progress):
        self.rounds.append((self.predictions, self.sites))

    def per_round(self):
        """(predictions, ``sites`` calls) made in each round."""
        return [(after[0] - before[0], after[1] - before[1])
                for before, after in zip(self.rounds, self.rounds[1:])]


def _setup(name):
    source, transformations = PROGRAMS[name]
    program = parse_program(source)
    predictor = IncrementalPredictor(
        CostAggregator(power_machine(), SymbolTable.from_program(program)))
    return program, transformations(), predictor


def _astar(name, **kwargs):
    program, transformations, predictor = _setup(name)
    spy = Spy(predictor, transformations)
    result = astar_search(program, transformations, predictor,
                          workload=WORKLOAD, **kwargs)
    return result, spy


def _answer(result):
    digest = hashlib.sha256(
        print_program(result.program).encode()).hexdigest()[:12]
    return (result.sequence, str(result.cost), digest)


def _fingerprint(result):
    return (result.sequence, str(result.cost), print_program(result.program),
            result.nodes_expanded)


@pytest.mark.parametrize("name,depth", sorted(GOLDEN))
def test_answers_match_the_recorded_goldens(name, depth):
    for max_nodes, row in enumerate(GOLDEN[(name, depth)], start=1):
        *astar_labels, exhaustive_label = row.split()
        for beam_width, label in enumerate(astar_labels, start=1):
            result, _ = _astar(name, max_depth=depth, max_nodes=max_nodes,
                               beam_width=beam_width)
            assert _answer(result) == ANSWERS[label], (max_nodes, beam_width)
            # Every search in the grid stops on its budget, so each one
            # ends with a budget-spending round.
            assert result.nodes_expanded == max_nodes
        program, transformations, predictor = _setup(name)
        oracle = exhaustive_search(program, transformations, predictor,
                                   WORKLOAD, max_depth=depth,
                                   max_nodes=max_nodes)
        assert _answer(oracle) == ANSWERS[exhaustive_label], max_nodes
        assert oracle.nodes_expanded == max_nodes


@pytest.mark.parametrize("beam_width", [1, 2, 3])
def test_budget_spending_round_predicts_nothing(beam_width):
    program, transformations, predictor = _setup("nest")
    spy = Spy(predictor, transformations)
    result = astar_search(program, transformations, predictor,
                          workload=WORKLOAD, max_depth=4, max_nodes=4,
                          beam_width=beam_width, on_round=spy.on_round)
    assert result.nodes_expanded == 4
    *earlier, last = spy.per_round()
    assert last == (0, 0)
    assert earlier and all(sites > 0 for _, sites in earlier)


def test_exhaustive_budget_spending_pop_generates_nothing():
    program, transformations, predictor = _setup("nest")
    spy = Spy(predictor, transformations)
    result = exhaustive_search(program, transformations, predictor,
                               WORKLOAD, max_depth=2, max_nodes=1)
    assert result.nodes_expanded == 1
    assert (spy.predictions, spy.sites) == (1, 0)   # the root only
    assert result.nodes_generated == 1


def test_service_saxpy_search_makes_four_predictions(monkeypatch):
    calls = []
    predict = IncrementalPredictor.predict

    def counted(self, program):
        calls.append(program)
        return predict(self, program)

    monkeypatch.setattr(IncrementalPredictor, "predict", counted)
    with PredictionEngine(workers=0, cache_size=8) as engine:
        response = engine.restructure(RestructureRequest(
            source=SAXPY, workload={"n": "256"}, depth=2, max_nodes=2,
            beam_width=2))
    assert response.sequence == "unroll i-loop x2"
    assert response.cost == "2*n + 15"
    assert response.nodes_expanded == 2
    # The root and its three children; the second round pops the best
    # child and spends the budget, so its two children are never made.
    assert len(calls) == 4


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_budget_equals_a_stop_once_it_is_spent(budget):
    """With beam 1, ``max_nodes=B`` is ``B + 1`` stopped after B pops.

    ``max_depth`` exceeds the budget, so every popped state is expanded
    and each round pops exactly one.
    """
    capped, _ = _astar("pair", max_depth=budget + 1, max_nodes=budget)
    stopped, _ = _astar("pair", max_depth=budget + 1, max_nodes=budget + 1,
                        on_round=lambda progress: progress.expanded < budget)
    assert stopped.nodes_expanded == budget and not stopped.completed
    assert _fingerprint(capped) == _fingerprint(stopped)


@pytest.mark.parametrize("beam_width", [1, 2])
def test_resuming_the_final_round_returns_at_once(beam_width):
    checkpoints = []
    baseline, _ = _astar("pair", max_depth=2, max_nodes=4,
                         beam_width=beam_width,
                         on_round=lambda p: checkpoints.append(p.checkpoint))
    resumed, spy = _astar("pair", max_depth=2, max_nodes=4,
                          beam_width=beam_width, resume_from=checkpoints[-1])
    assert (spy.predictions, spy.sites) == (0, 0)
    assert _fingerprint(resumed) + (resumed.nodes_generated, resumed.rounds) \
        == _fingerprint(baseline) + (baseline.nodes_generated, baseline.rounds)
