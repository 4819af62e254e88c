"""Per-unit bin state and simultaneous multi-unit placement.

"A conceptual view of our cost model of superscalar architecture is a
two dimensional unit with multiple functional bins in one dimension and
time slots in another dimension.  ...  All costs of an operation have
to fit in all functional units at the same time for it to occupy the
time slots."  (section 2.1)

:meth:`BinSet.place` is the *reference* drop: the production path is
the fused columnar kernel (:mod:`repro.cost.columnar`), which must stay
bit-identical to this implementation -- the differential tests and the
E-KERNEL bench drive both and compare every field.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.machine import Machine
from ..machine.units import UnitCost, UnitKind
from .slots import SlotArray

__all__ = ["BinSet", "Placement"]


@dataclass(frozen=True)
class Placement:
    """Where one operation landed: start time and per-unit pipe choice."""

    time: int
    pipes: tuple[tuple[UnitKind, int], ...]


class BinSet:
    """The 2-D bins of one machine: a :class:`SlotArray` per pipeline.

    The bins are flushed (a fresh :class:`BinSet` is built) before being
    used for another block of statements, exactly as the paper
    prescribes.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.arrays: dict[tuple[UnitKind, int], SlotArray] = {
            bin_id: SlotArray() for bin_id in machine.bins()
        }
        self._pipes_of: dict[UnitKind, list[tuple[UnitKind, int]]] = {}
        for kind, pipe in machine.bins():
            self._pipes_of.setdefault(kind, []).append((kind, pipe))
        # Running top, maintained by place(): recomputing it by
        # scanning every bin is O(bins) per instruction, and the
        # focus-span floor asks for it on *every* placement.
        self._top = 0

    # ------------------------------------------------------------------
    def top(self) -> int:
        """One past the highest occupied slot across all bins (0 if empty)."""
        return self._top

    def _scan_top(self) -> int:
        """Recompute the top from the bins (oracle for tests)."""
        highest = -1
        for array in self.arrays.values():
            last = array.last_filled()
            if last is not None and last > highest:
                highest = last
        return highest + 1

    def bottom(self) -> int | None:
        """The lowest occupied slot across all bins, or None if empty."""
        lowest: int | None = None
        for array in self.arrays.values():
            first = array.first_filled()
            if first is not None and (lowest is None or first < lowest):
                lowest = first
        return lowest

    # ------------------------------------------------------------------
    def _best_pipe(self, kind: UnitKind, t: int, length: int) -> tuple[int, tuple[UnitKind, int]]:
        """Earliest feasible start >= t across the pipes of one unit."""
        best_time: int | None = None
        best_pipe: tuple[UnitKind, int] | None = None
        for pipe_id in self._pipes_of[kind]:
            candidate = self.arrays[pipe_id].next_fit(t, length)
            if best_time is None or candidate < best_time:
                best_time, best_pipe = candidate, pipe_id
        assert best_time is not None and best_pipe is not None
        return best_time, best_pipe

    def place(self, costs: tuple[UnitCost, ...], earliest: int) -> Placement:
        """Drop one operation at the lowest time slot >= ``earliest``.

        Finds the smallest ``t`` such that every unit cost component has
        a pipe with ``noncoverable`` consecutive free slots starting at
        ``t``, then fills those slots.  Coverable costs occupy nothing
        (they are transparent); they matter only for the completion time
        the caller computes.
        """
        needed = [c for c in costs if c.noncoverable > 0]
        if not needed:
            return Placement(earliest, ())
        t = earliest
        while True:
            chosen: list[tuple[UnitKind, int]] = []
            worst = t
            for cost in needed:
                candidate, pipe = self._best_pipe(cost.unit, t, cost.noncoverable)
                chosen.append(pipe)
                if candidate > worst:
                    worst = candidate
            if worst == t:
                for cost, pipe in zip(needed, chosen):
                    self.arrays[pipe].fill(t, cost.noncoverable)
                    if t + cost.noncoverable > self._top:
                        self._top = t + cost.noncoverable
                return Placement(t, tuple(chosen))
            t = worst

    # ------------------------------------------------------------------
    def profiles(self) -> dict[tuple[UnitKind, int], tuple[int, int] | None]:
        """Per-bin (first, last) occupied slots; None for untouched bins."""
        out: dict[tuple[UnitKind, int], tuple[int, int] | None] = {}
        for bin_id, array in self.arrays.items():
            first = array.first_filled()
            last = array.last_filled()
            out[bin_id] = None if first is None or last is None else (first, last)
        return out

    def occupancy(self) -> dict[tuple[UnitKind, int], int]:
        """Filled slots per bin (for critical-bin ratio diagnostics)."""
        return {bin_id: array.filled_total for bin_id, array in self.arrays.items()}

    def render(self, height: int | None = None) -> str:
        """ASCII picture of the bins (Figure 3 style), for examples/docs."""
        height = height or self.top()
        bin_ids = sorted(self.arrays, key=lambda b: (b[0].value, b[1]))
        header = " ".join(f"{kind.value[:6]:>6s}{pipe}" for kind, pipe in bin_ids)
        lines = [header]
        grids = {b: self.arrays[b].as_bools() for b in bin_ids}
        for slot in range(height - 1, -1, -1):
            row = []
            for b in bin_ids:
                grid = grids[b]
                mark = "#" if slot < len(grid) and grid[slot] else "."
                row.append(f"{mark:>7s}")
            lines.append(" ".join(row) + f"   t={slot}")
        return "\n".join(lines)
