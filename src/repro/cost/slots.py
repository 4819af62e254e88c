"""The signed-block time-slot array (paper Figures 4 and 5).

"The time slots of instruction execution units are decomposed into
lists of alternating filled and empty blocks that are represented by a
two-dimensional array.  The first and last slots of a block are used to
record the size of the block.  If the block is empty, we record the
negative value of the block size."  (section 2.1)

The array representation gives doubly-linked-list navigation for free:
the cell just *before* a block's first slot is the last slot of its
predecessor, whose absolute value is the predecessor's size; symmetric
reasoning reaches the successor.  Searching for a run of empty slots
walks block to block instead of cell by cell, which is what makes
simultaneous multi-bin search cheap (bench ``E-F4/5`` measures this
against a naive per-cell scan).
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["SlotArray"]


class SlotArray:
    """Time slots of a single functional-unit bin.

    Slots are either *filled* (occupied by a noncoverable cost) or
    *empty*.  The array grows on demand; slots beyond the current
    capacity are implicitly empty.
    """

    __slots__ = (
        "cells", "_lowest_filled", "_highest_filled", "filled_total", "_hint",
    )

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.cells: list[int] = [0] * capacity
        self._write_block(0, capacity, filled=False)
        self._lowest_filled: int | None = None
        self._highest_filled: int | None = None
        self.filled_total = 0
        # Search hint: a position guaranteed to be a block *start*.
        # Queries at or above it resume the block walk there instead of
        # at slot 0, which keeps placement linear when the search floor
        # (ready time / focus span) rises monotonically, as it does in
        # the estimator's main loop.
        self._hint = 0

    # ------------------------------------------------------------------
    # Block encoding helpers
    # ------------------------------------------------------------------
    def _write_block(self, start: int, size: int, filled: bool) -> None:
        """Stamp the boundary cells of a block; interiors stay as-is.

        Interior cells are never read, so they need not be zeroed --
        only the first and last cell of each block carry meaning.
        """
        value = size if filled else -size
        self.cells[start] = value
        self.cells[start + size - 1] = value

    @property
    def capacity(self) -> int:
        return len(self.cells)

    def _grow_to(self, needed: int) -> None:
        """Extend capacity to at least ``needed`` slots."""
        old = self.capacity
        if needed <= old:
            return
        new_capacity = max(needed, old * 2)
        extra = new_capacity - old
        # Is the last block empty?  Then extend it; else append a new
        # empty block.
        last_value = self.cells[old - 1]
        self.cells.extend([0] * extra)
        if last_value < 0:
            size = -last_value
            self._write_block(old - size, size + extra, filled=False)
        else:
            self._write_block(old, extra, filled=False)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def blocks(self) -> Iterator[tuple[int, int, bool]]:
        """Yield (start, size, filled) for every block, in order."""
        pos = 0
        while pos < self.capacity:
            value = self.cells[pos]
            if value == 0:
                raise AssertionError(f"corrupt slot array at {pos}")
            size = abs(value)
            yield pos, size, value > 0
            pos += size

    def _block_containing(self, slot: int) -> tuple[int, int, bool]:
        """(start, size, filled) of the block holding ``slot``.

        Walks block to block, starting from the search hint when the
        slot lies at or above it (the common, monotone case).
        """
        if slot >= self.capacity:
            # Implicitly empty tail.
            return self.capacity, 1 << 62, False
        pos = self._hint if self._hint <= slot else 0
        while pos < self.capacity:
            value = self.cells[pos]
            if value == 0:
                raise AssertionError(f"corrupt slot array at {pos}")
            size = abs(value)
            if pos <= slot < pos + size:
                self._hint = pos
                return pos, size, value > 0
            pos += size
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_free(self, start: int, length: int) -> bool:
        """True when slots [start, start+length) are all empty."""
        if length == 0:
            return True
        if start < 0:
            raise ValueError("negative slot")
        if start >= self.capacity:
            return True
        block_start, size, filled = self._block_containing(start)
        if filled:
            return False
        available = min(size, self.capacity - block_start) - (start - block_start)
        if start + length <= self.capacity:
            return available >= length
        # Needs the implicit tail: the containing block must reach the end.
        return block_start + size >= self.capacity

    def next_fit(self, start: int, length: int) -> int:
        """Smallest s >= start with ``length`` consecutive empty slots.

        Walks blocks, not cells.  Always succeeds (the array is
        conceptually infinite).
        """
        if start < 0:
            raise ValueError("negative slot")
        if length == 0:
            return start
        pos = min(start, self.capacity)
        if pos == self.capacity:
            return start
        block_start, size, filled = self._block_containing(pos)
        while True:
            if not filled:
                usable_start = max(block_start, start)
                block_end = block_start + size
                if block_end >= self.capacity:
                    # Final empty block extends implicitly forever.
                    return usable_start
                if block_end - usable_start >= length:
                    return usable_start
            block_start += size
            if block_start >= self.capacity:
                return max(block_start, start)
            value = self.cells[block_start]
            size = abs(value)
            filled = value > 0

    def first_filled(self) -> int | None:
        return self._lowest_filled

    def last_filled(self) -> int | None:
        return self._highest_filled

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill(self, start: int, length: int) -> None:
        """Mark slots [start, start+length) filled; they must be empty."""
        if length == 0:
            return
        if start < 0:
            raise ValueError("negative slot")
        # Exactly the slots the fill touches: the merge-with-successor
        # check below guards on ``fill_end < capacity``, so no sentinel
        # cell past the fill is ever read.
        self._grow_to(start + length)
        if not self.is_free(start, length):
            raise ValueError(f"slots [{start}, {start + length}) not free")
        block_start, size, _ = self._block_containing(start)
        block_end = block_start + size
        fill_end = start + length
        # Split the empty block into [empty-left] [filled] [empty-right],
        # then merge the filled part with any filled neighbours.
        new_start, new_len = start, length
        rewritten_end = block_end  # one past the highest cell we disturb
        if block_start < start:
            self._write_block(block_start, start - block_start, filled=False)
        else:
            # Merge with a filled predecessor, if any.
            if block_start > 0 and self.cells[block_start - 1] > 0:
                prev_size = self.cells[block_start - 1]
                new_start = block_start - prev_size
                new_len += prev_size
        if fill_end < block_end:
            self._write_block(fill_end, block_end - fill_end, filled=False)
        else:
            # Merge with a filled successor, if any.
            if fill_end < self.capacity and self.cells[fill_end] > 0:
                next_size = self.cells[fill_end]
                new_len += next_size
                rewritten_end = fill_end + next_size
        self._write_block(new_start, new_len, filled=True)
        # A hint inside the rewritten span may no longer be a block
        # start; retreat it to the new block's start (always valid).
        if new_start <= self._hint <= rewritten_end:
            self._hint = new_start
        self.filled_total += length
        if self._lowest_filled is None or start < self._lowest_filled:
            self._lowest_filled = start
        if self._highest_filled is None or fill_end - 1 > self._highest_filled:
            self._highest_filled = fill_end - 1

    # ------------------------------------------------------------------
    # Introspection for tests and benchmarks
    # ------------------------------------------------------------------
    def as_bools(self) -> list[bool]:
        """Dense filled/empty rendering (testing aid; O(capacity))."""
        out = [False] * self.capacity
        for start, size, filled in self.blocks():
            if filled:
                out[start:start + size] = [True] * size
        return out

    def occupancy_in(self, lo: int, hi: int) -> int:
        """Number of filled slots in [lo, hi) -- used for shape ratios."""
        count = 0
        for start, size, filled in self.blocks():
            if start >= hi:
                break          # blocks are ordered; nothing later overlaps
            if not filled:
                continue
            overlap = min(start + size, hi) - max(start, lo)
            if overlap > 0:
                count += overlap
        return count

    def __str__(self) -> str:
        marks = "".join("#" if b else "." for b in self.as_bools())
        return f"SlotArray[{marks}]"
