"""Operation-count baseline cost model.

The conventional model the paper argues against (section 1.2): add up
per-operation latencies, ignore functional-unit parallelism, operation
overlap, and coverable cycles.  "If not applied carefully, a
conventional cost estimation model may be off by a factor of ten or
more!" -- bench ``E-OPC`` measures exactly that gap on the Figure 7
kernels.

The baseline exposes the same ``estimate`` interface as
:class:`~repro.cost.StraightLineEstimator`, so it can be dropped into
the aggregator for end-to-end comparisons.
"""

from __future__ import annotations

from ..cost.costblock import CostBlock
from ..cost.estimator import BlockCost
from ..machine.machine import Machine
from ..translate.stream import Instr, InstrStream

__all__ = ["OpCountEstimator", "opcount_cycles"]


def opcount_cycles(machine: Machine, instrs: list[Instr]) -> int:
    """Serial sum of result latencies: the operation-count estimate."""
    return sum(machine.atomic(i.atomic).result_latency for i in instrs)


class OpCountEstimator:
    """Drop-in estimator that counts operations instead of placing them."""

    def __init__(self, machine: Machine, focus_span: int = 0):
        self.machine = machine
        self.focus_span = focus_span  # accepted for interface parity

    def estimate(self, stream: InstrStream) -> BlockCost:
        iterative = [i for i in stream if not i.one_time]
        invariant = [i for i in stream if i.one_time]
        cycles = opcount_cycles(self.machine, iterative)
        one_time = opcount_cycles(self.machine, invariant)
        block = _fake_block(cycles)
        return BlockCost(
            cycles=cycles,
            one_time_cycles=one_time,
            steady_cycles=cycles,  # no overlap credit, ever
            block=block,
            one_time_block=_fake_block(one_time),
            placed=None,
        )

    def estimate_unrolled(self, stream: InstrStream, factor: int) -> BlockCost:
        if factor < 1:
            raise ValueError("unroll factor must be >= 1")
        base = self.estimate(stream)
        cycles = base.cycles * factor
        return BlockCost(
            cycles=cycles,
            one_time_cycles=0,
            steady_cycles=cycles,
            block=_fake_block(cycles),
            one_time_block=CostBlock.empty(),
            placed=None,
        )

    def recommend_unroll(self, stream: InstrStream, candidates=(1, 2, 4, 8)) -> int:
        # Counting ops can never see a benefit from unrolling.
        return 1


def _fake_block(cycles: int) -> CostBlock:
    if cycles == 0:
        return CostBlock.empty()
    # A degenerate single-column block: the baseline has no shape info.
    from ..machine.units import UnitKind

    return CostBlock(
        lo=0,
        occupied_hi=cycles,
        completion=cycles,
        bin_profiles={(UnitKind.ALU, 0): (0, cycles - 1)},
        bin_occupancy={(UnitKind.ALU, 0): cycles},
    )
