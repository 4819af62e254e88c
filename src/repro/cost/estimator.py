"""Straight-line cost estimator: the public face of the Tetris model.

Combines placement, the one-time/iterative split (loop-invariant code
is dropped into a *separate* pair of bins, per section 2.2.2: "Two
functional bins are used to count the one-time and iterative costs
separately"), steady-state iteration overlap, and the two
unroll-estimation methods of section 2.2.2 (shape inspection and
repeated dropping).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.compiled import compile_ops
from ..machine.machine import Machine
from ..translate.stream import InstrStream, reindex
from .costblock import CostBlock
from .overlap import steady_state_cycles
from .placement import (
    DEFAULT_FOCUS_SPAN,
    PlacedBlock,
    place_copies,
    place_stream,
)

__all__ = ["BlockCost", "StraightLineEstimator", "UNROLL_LADDER"]

#: The unroll factors one memoized ladder answers: loop aggregation
#: reads x4 and x8, :meth:`StraightLineEstimator.recommend_unroll` x2, x4
#: and x8, so eight drops of the body answer them all.  The memo keeps
#: only these summaries.
UNROLL_LADDER = (2, 4, 8)


@dataclass(frozen=True)
class BlockCost:
    """Cost summary of one basic block.

    ``cycles``          -- cost of one execution of the iterative part;
    ``one_time_cycles`` -- cost of the loop-invariant part (charged once);
    ``steady_cycles``   -- per-iteration cost in loop steady state, with
                           shape overlap between iterations credited;
    ``block``           -- the cost block of the iterative part.
    """

    cycles: int
    one_time_cycles: int
    steady_cycles: int
    block: CostBlock
    one_time_block: CostBlock
    placed: PlacedBlock | None

    @property
    def total_first_iteration(self) -> int:
        return self.cycles + self.one_time_cycles


class StraightLineEstimator:
    """Estimate cycles of straight-line code on a machine description.

    ``focus_span`` trades accuracy for speed (bench ``E-FOCUS``): the
    placement search never looks more than this many slots below the
    current top of the bins.
    """

    def __init__(self, machine: Machine, focus_span: int = DEFAULT_FOCUS_SPAN):
        self.machine = machine
        self.focus_span = focus_span
        # Intern the machine's op costs up front: every placement below
        # runs on the compiled fast path without a first-call hiccup.
        compile_ops(machine)

    # ------------------------------------------------------------------
    def estimate(self, stream: InstrStream) -> BlockCost:
        """Cost of one basic block (iterative + one-time parts).

        Re-estimating an already-seen block (beam rounds, service
        batches) hashes each half once and answers from the placement
        memo; a half is lowered to columns only on a memo miss.
        """
        iterative = [i for i in stream if not i.one_time]
        invariant = [i for i in stream if i.one_time]
        placed = place_stream(self.machine, reindex(iterative),
                              self.focus_span)
        placed_inv = place_stream(self.machine, reindex(invariant),
                                  self.focus_span)
        return BlockCost(
            cycles=placed.cycles,
            one_time_cycles=placed_inv.cycles,
            steady_cycles=steady_state_cycles(placed.block),
            block=placed.block,
            one_time_block=placed_inv.block,
            placed=placed,
        )

    # ------------------------------------------------------------------
    def estimate_unrolled(self, stream: InstrStream, factor: int) -> BlockCost:
        """Cost of a body replicated ``factor`` times (repeated dropping).

        This is the paper's second unroll-estimation method: "dropping
        the innermost basic block into the functional bins multiple
        times".  Copies are independent (callers handle loop-carried
        chains, e.g. reductions, at the aggregation level), so the
        placement discovers exactly how much overlap the machine allows.

        The iterative part is dropped ``factor`` times into one set of
        bins (:func:`~repro.cost.placement.place_copies`); the factors
        in :data:`UNROLL_LADDER` share one memoized drop of eight.
        """
        if factor < 1:
            raise ValueError("unroll factor must be >= 1")
        iterative = reindex([i for i in stream if not i.one_time])
        reads = UNROLL_LADDER if factor in UNROLL_LADDER else (factor,)
        block = place_copies(self.machine, iterative, reads,
                             self.focus_span)[reads.index(factor)]
        return BlockCost(
            cycles=block.cycles,
            one_time_cycles=0,
            steady_cycles=steady_state_cycles(block),
            block=block,
            one_time_block=CostBlock.empty(),
            placed=PlacedBlock(self.machine.name, (), block),
        )

    # ------------------------------------------------------------------
    def recommend_unroll(self, stream: InstrStream, candidates=(1, 2, 4, 8)) -> int:
        """Pick the unroll factor with the best per-iteration cost.

        Uses repeated dropping; ties go to the smaller factor (less
        code growth).  The shape-inspection quick check
        (:meth:`CostBlock.unroll_headroom`) can veto unrolling early.
        """
        base = self.estimate(stream)
        if base.block.unroll_headroom() < 0.05:
            return 1
        best_factor = 1
        best_per_iter = float(base.cycles)
        for factor in candidates:
            if factor == 1:
                continue
            cost = self.estimate_unrolled(stream, factor)
            per_iter = cost.cycles / factor
            if per_iter < best_per_iter - 1e-9:
                best_per_iter = per_iter
                best_factor = factor
        return best_factor
