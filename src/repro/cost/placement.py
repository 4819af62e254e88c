"""The linear-time lowest-slot placement algorithm (paper section 2.1).

"Our approximate solution for the scheduling problem is to place the
cost object of each operation into the lowest time slots that all cost
components of the operation can fit simultaneously."

The *focus span* limits how far below the current top of the bins the
search may look: "only a certain number of slots (called focus span)
under the highest occupied time slot need to be considered.  ...  the
focus span is an adjustable parameter, thus allowing more flexible
allocation of computing resources based on accuracy and efficiency
considerations."

Two implementations coexist:

* the **fused columnar kernel** (:mod:`repro.cost.columnar`, default):
  precompiled per-machine op costs + flat stream columns + a lockstep
  multi-bin search;
* the **legacy path** (``set_placement_kernel("legacy")``): the
  original per-instruction ``BinSet.place`` loop, kept as the readable
  reference implementation and differential oracle.

Both produce bit-identical :class:`PlacedBlock` results (cycles, op
times, pipe choices).  Answers read only a placement's ``cycles`` and
``block``, so memoized placements carry no per-op tuple; ``.ops`` comes
only from a placement into explicit ``bins``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..machine.compiled import compile_ops
from ..machine.machine import Machine
from ..obs import BoundedCache, trace_span
from ..translate.stream import Instr, InstrStream, placement_digest
from .bins import BinSet
from .columnar import CompiledStream, compile_stream, drop_columns
from .costblock import CostBlock

__all__ = [
    "PlacedOp", "PlacedBlock", "place_stream", "DEFAULT_FOCUS_SPAN",
    "stream_digest", "placement_cache_stats", "reset_placement_cache",
    "placement_kernel", "set_placement_kernel",
    "PLACEMENT_CACHE_LIMIT",
]

#: Default focus span; the ablation bench E-FOCUS sweeps this.
DEFAULT_FOCUS_SPAN = 64

#: Canonical digest helper (moved to translate.stream so streams can
#: memoize it; re-exported here for existing callers).
stream_digest = placement_digest


class PlacedOp(NamedTuple):
    """One operation's landing site and completion time.

    A named tuple rather than a dataclass: an unmemoized placement
    builds one of these per instruction, and ``tuple.__new__`` beats a
    frozen dataclass's ``object.__setattr__`` chain several-fold at
    equal immutability.
    """

    instr: Instr
    time: int
    completion: int


class PlacedBlock(NamedTuple):
    """Result of placing a whole instruction stream.

    Immutable, so the placement memo hands its stored object to every
    hit.  ``ops`` is empty on memoized placements: no answer reads it,
    and keeping it would pin every placed stream's :class:`Instr`
    objects in the memo.  A placement into explicit ``bins`` (never
    memoized) carries one :class:`PlacedOp` per instruction.
    """

    machine_name: str
    ops: tuple[PlacedOp, ...]
    block: CostBlock

    @property
    def cycles(self) -> int:
        return self.block.cycles


# ----------------------------------------------------------------------
# Kernel selection

_KERNELS = ("fused", "legacy")
_kernel = "fused"


def placement_kernel() -> str:
    """The process-wide default placement kernel."""
    return _kernel


def set_placement_kernel(name: str) -> str:
    """Set the default kernel ("fused" or "legacy"); returns the old one."""
    global _kernel
    if name not in _KERNELS:
        raise ValueError(f"unknown placement kernel {name!r}; "
                         f"choose from {_KERNELS}")
    previous = _kernel
    _kernel = name
    return previous


# ----------------------------------------------------------------------
# Placement memo
#
# Transformation search predicts thousands of program variants whose
# straight-line bodies are overwhelmingly *identical* to bodies already
# placed (a rewrite touches one loop; every other block re-translates
# to the same instruction stream).  Placement is a pure function of
# (machine cost table, instruction stream, focus span), so a bounded
# LRU keyed exactly that way answers those repeats without replaying
# the Tetris drop.  The service engine publishes the hit/miss counters
# as ``repro_placement_cache_*`` on /metrics.

PLACEMENT_CACHE_LIMIT = 2048

#: (machine fingerprint, stream digest, focus span) -> placement, with
#: ``ops == ()``.  A hit returns the stored object itself.
_memo: BoundedCache[tuple[str, str, int], PlacedBlock] = \
    BoundedCache("placement", PLACEMENT_CACHE_LIMIT)


def placement_cache_stats() -> dict[str, int]:
    """Snapshot of the placement memo's counters and size."""
    return _memo.snapshot()


def reset_placement_cache() -> None:
    """Drop all memoized placements and zero the counters."""
    _memo.clear()


def place_stream(
    machine: Machine,
    instrs: list[Instr] | InstrStream | CompiledStream,
    focus_span: int = DEFAULT_FOCUS_SPAN,
    bins: BinSet | None = None,
) -> PlacedBlock:
    """Drop each instruction into the lowest feasible time slots.

    Instructions are processed in stream order; each is placed at the
    lowest time ``t`` such that

    * every flow dependence's result is available (``t >= ready``),
    * ``t`` is within the focus span of the current top of the bins, and
    * all noncoverable cost components fit simultaneously at ``t``.

    The first two conditions model the paper's "filter": an operation
    passes through the transparent (coverable) region of its
    predecessors but cannot sink below its producers' completions.

    Identical (machine, stream, focus span) placements are answered
    from a bounded LRU, and a memoized result has ``ops == ()``.
    Passing explicit ``bins`` (shared, possibly pre-filled state)
    bypasses the memo and returns every op.  ``instrs`` may be a
    pre-lowered :class:`~repro.cost.columnar.CompiledStream`, in which
    case its cached digest is reused instead of re-hashed.  Both
    kernels return bit-identical results, so they share the memo.
    """
    if focus_span < 1:
        raise ValueError("focus span must be at least 1")

    compiled: CompiledStream | None = None
    digest: str | None = None
    if isinstance(instrs, CompiledStream):
        compiled = instrs
        instr_list: list[Instr] | tuple[Instr, ...] = instrs.instrs
        digest = instrs.digest
    elif isinstance(instrs, InstrStream):
        instr_list = instrs.instrs
        digest = instrs.digest()
    else:
        instr_list = instrs

    if bins is not None:
        return _place_uncached(machine, instr_list, focus_span, bins,
                               _kernel, compiled, digest)
    if digest is None:
        digest = placement_digest(instr_list)
    key = (compile_ops(machine).fingerprint, digest, focus_span)
    hit = _memo.get(key)
    if hit is not None:
        # Memoized placements still announce the phase: traces and
        # the cost.place histogram stay complete under a warm memo.
        with trace_span("cost.place") as span:
            if span.recording:
                span.set(machine=machine.name, ops=len(instr_list),
                         focus_span=focus_span, cycles=hit.cycles,
                         cached=True)
        return hit
    _, _, block = _drop_stream(machine, instr_list, focus_span,
                               BinSet(machine), _kernel, compiled, digest)
    placed = PlacedBlock(machine.name, (), block)
    _memo.put(key, placed)
    return placed


def _place_uncached(
    machine: Machine,
    instr_list: list[Instr] | tuple[Instr, ...],
    focus_span: int,
    bins: BinSet | None,
    kernel: str = "fused",
    compiled: CompiledStream | None = None,
    digest: str | None = None,
) -> PlacedBlock:
    """One placement with every op, never memoized."""
    bin_set = bins if bins is not None else BinSet(machine)
    times, completions, block = _drop_stream(
        machine, instr_list, focus_span, bin_set, kernel, compiled, digest)
    ops = tuple(map(PlacedOp, instr_list, times, completions))
    return PlacedBlock(machine.name, ops, block)


def _drop_stream(
    machine: Machine,
    instr_list: list[Instr] | tuple[Instr, ...],
    focus_span: int,
    bin_set: BinSet,
    kernel: str,
    compiled: CompiledStream | None,
    digest: str | None,
) -> tuple[list[int], list[int], CostBlock]:
    """Run one kernel into ``bin_set``: (times, completions, summary)."""
    with trace_span("cost.place") as span:
        if kernel == "fused":
            if compiled is None:
                compiled = compile_stream(machine, instr_list, digest)
            times, completions = drop_columns(
                compiled, compile_ops(machine), bin_set, focus_span)
        else:
            times, completions = _place_legacy(machine, instr_list,
                                               focus_span, bin_set)
        block = _summarize(bin_set, times, completions)
        if span.recording:
            span.set(machine=machine.name, ops=len(instr_list),
                     focus_span=focus_span, cycles=block.cycles,
                     kernel=kernel)
    return times, completions, block


def _place_legacy(
    machine: Machine,
    instr_list: list[Instr] | tuple[Instr, ...],
    focus_span: int,
    bin_set: BinSet,
) -> tuple[list[int], list[int]]:
    """The reference implementation: one ``BinSet.place`` per instruction.

    Returns the same (start time, completion) columns as
    :func:`~repro.cost.columnar.drop_columns`.
    """
    done: dict[int, int] = {}
    times: list[int] = []
    completions: list[int] = []
    for instr in instr_list:
        op = machine.atomic(instr.atomic)
        ready = 0
        for dep in instr.deps:
            dep_done = done.get(dep, 0)
            if dep_done > ready:
                ready = dep_done
        floor = bin_set.top() - focus_span
        earliest = max(ready, floor, 0)
        placement = bin_set.place(op.costs, earliest)
        completion = placement.time + op.result_latency
        done[instr.index] = completion
        times.append(placement.time)
        completions.append(completion)
    return times, completions


def _summarize(
    bin_set: BinSet,
    times: list[int],
    completions: list[int],
) -> CostBlock:
    """Summary block for one placement, from its result columns."""
    if not completions:
        return CostBlock.empty()
    profiles = {
        bin_id: span
        for bin_id, span in bin_set.profiles().items()
        if span is not None
    }
    if not profiles:
        # Degenerate: only zero-noncoverable ops; anchor at first op time.
        lo = min(times)
        return CostBlock(lo, lo, max(completions))
    lo = min(first for first, _ in profiles.values())
    occupied_hi = max(last for _, last in profiles.values()) + 1
    completion = max(occupied_hi, max(completions))
    occupancy = {
        bin_id: count
        for bin_id, count in bin_set.occupancy().items()
        if count > 0
    }
    return CostBlock(lo, occupied_hi, completion, profiles, occupancy)
