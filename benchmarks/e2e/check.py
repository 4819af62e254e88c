"""Answer checks against an independent in-process reference.

The reference shares no state with the service under test: it runs the
``legacy`` placement kernel (the repository's differential oracle),
builds a fresh :class:`CostAggregator` for every program, and clears the
placement memo before each aggregation, so no cache of the serving path
can leak into it.  Per program it keeps only its own symbolic cost,
which it evaluates exactly (``Fraction`` arithmetic) at each binding.

* ``/predict``: ``cycles`` must equal the reference cost at the binding.
* ``/sweep``: every point must equal one derived here, width by width,
  without ``repro.sweep``: the placement term is a fresh aggregation on
  that width's family machine, the instruction count ``N`` a fresh
  aggregation whose estimator counts instructions, and the point is
  ``T = max(placement, N/W)`` (no miss rates are sent, so no penalty
  terms), with ``ipc = N/T``.
* ``/restructure``: the returned program must parse, and a fresh
  aggregation of it must print exactly the returned ``cost``.
"""

from __future__ import annotations

import contextlib
import random

from repro.aggregate.aggregator import CostAggregator
from repro.cost.costblock import CostBlock
from repro.cost.estimator import BlockCost
from repro.cost.placement import reset_placement_cache, set_placement_kernel
from repro.ir.parser import parse_program
from repro.ir.symtab import SymbolTable
from repro.machine.family import family_machine, family_width_ladder
from repro.machine.registry import get_machine
from repro.service.protocol import parse_bindings

__all__ = ["Reference", "check_records"]

#: Most fresh reference aggregations one run may spend.  Every answer of
#: every workload is checked at the seed commit's speed; a commit fast
#: enough to exceed this gets a seeded uniform sample instead, so that
#: checking time cannot grow without bound.
MAX_REFERENCE_PROGRAMS = 250

#: Every request of every workload targets the default machine.
_MACHINE = "power"


@contextlib.contextmanager
def legacy_kernel():
    previous = set_placement_kernel("legacy")
    try:
        yield
    finally:
        set_placement_kernel(previous)


def _fresh_cost(program, machine, estimator=None):
    reset_placement_cache()
    aggregator = CostAggregator(machine, SymbolTable.from_program(program))
    if estimator is not None:
        aggregator.estimator = estimator
    return aggregator.cost_program(program)


class _CountingEstimator:
    """An estimator whose "cycles" are instruction counts.

    Aggregating with it gives the symbolic instruction count ``N`` of
    the sweep's ``N/W`` fetch bound, loop overhead included.
    """

    @staticmethod
    def _cost(iterative: int, one_time: int) -> BlockCost:
        return BlockCost(cycles=iterative, one_time_cycles=one_time,
                         steady_cycles=iterative, block=CostBlock.empty(),
                         one_time_block=CostBlock.empty(), placed=None)

    def estimate(self, stream) -> BlockCost:
        iterative = sum(1 for instr in stream if not instr.one_time)
        return self._cost(iterative, len(stream) - iterative)

    def estimate_unrolled(self, stream, factor: int) -> BlockCost:
        return self._cost(
            factor * sum(1 for instr in stream if not instr.one_time), 0)


class Reference:
    """Memoized per-program reference answers (call inside legacy_kernel)."""

    def __init__(self):
        self.programs = 0          # fresh reference programs built
        self._costs: dict[str, object] = {}
        self._ladders: dict[str, tuple] = {}

    def known(self, kind: str, payload: dict) -> bool:
        if kind == "predict":
            return payload["source"] in self._costs
        if kind == "sweep":
            return payload["source"] in self._ladders
        return False

    def _cost(self, source: str):
        cost = self._costs.get(source)
        if cost is None:
            self.programs += 1
            cost = _fresh_cost(parse_program(source), get_machine(_MACHINE))
            self._costs[source] = cost
        return cost

    def predict_cycles(self, source: str, bindings: dict) -> str:
        return str(self._cost(source).evaluate(parse_bindings(bindings)))

    def sweep_points(self, source: str, bindings: dict) -> tuple:
        """``(width, cycles, ipc, fingerprint, placement, penalty)`` per
        width of the default ladder."""
        ladder = self._ladders.get(source)
        if ladder is None:
            self.programs += 1
            program = parse_program(source)
            base = get_machine(_MACHINE)
            members = [(width, family_machine(width, base=base))
                       for width in family_width_ladder()]
            count = _fresh_cost(program, members[0][1], _CountingEstimator())
            ladder = self._ladders[source] = (count, [
                (width, machine.fingerprint(), _fresh_cost(program, machine))
                for width, machine in members])
        count, members = ladder
        exact = parse_bindings(bindings)
        instructions = float(count.evaluate(exact))
        points = []
        for width, fingerprint, placement in members:
            placed = float(placement.evaluate(exact))
            cycles = max(placed, instructions / width)
            points.append((width, round(cycles, 4),
                           round(instructions / cycles, 4) if cycles else 0.0,
                           fingerprint, placed, 0.0))
        return tuple(points)

    def restructure_cost(self, program_text: str) -> str:
        self.programs += 1
        program = parse_program(program_text)
        return str(_fresh_cost(program, get_machine(_MACHINE)))


def _mismatch(reference: Reference, kind: str, payload: dict,
              response) -> str | None:
    """None when ``response`` is right, else a one-line reason."""
    if kind == "predict":
        want = reference.predict_cycles(payload["source"], payload["bindings"])
        if response.cycles != want:
            return f"predict cycles {response.cycles} != reference {want}"
        return None
    if kind == "sweep":
        got = tuple((p.width, p.cycles, p.ipc, p.fingerprint,
                     p.placement_cycles, p.penalty_cycles)
                    for p in response.points)
        want = reference.sweep_points(payload["source"], payload["bindings"])
        if got != want:
            return f"sweep points {got} != reference {want}"
        return None
    if kind == "restructure":
        try:
            want = reference.restructure_cost(response.program)
        except Exception as error:  # noqa: BLE001 -- any failure is wrong
            return f"restructure program does not cost: {error!r}"
        if response.cost != want:
            return f"restructure cost {response.cost} != recomputed {want}"
        return None
    return f"unknown request kind {kind!r}"


def check_records(records, seed: int) -> tuple[int, int, list[str]]:
    """Check every answered record; returns (checked, wrong, reasons).

    ``records`` hold ``(kind, payload, response)`` for the successful
    requests.  Records are visited in a seeded order so that, should
    :data:`MAX_REFERENCE_PROGRAMS` run out, the checked ones are a
    uniform sample.
    """
    order = list(range(len(records)))
    random.Random(f"{seed}:check").shuffle(order)
    reference = Reference()
    checked = wrong = 0
    reasons: list[str] = []
    with legacy_kernel():
        for index in order:
            kind, payload, response = records[index]
            if (reference.programs >= MAX_REFERENCE_PROGRAMS
                    and not reference.known(kind, payload)):
                continue
            checked += 1
            try:
                reason = _mismatch(reference, kind, payload, response)
            except Exception as error:  # noqa: BLE001 -- reference boundary
                reason = f"reference failed on {kind}: {error!r}"
            if reason is not None:
                wrong += 1
                if len(reasons) < 5:
                    reasons.append(reason)
    reset_placement_cache()
    return checked, wrong, reasons
