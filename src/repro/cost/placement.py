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
* the **legacy path** (``kernel="legacy"``): the original
  per-instruction ``BinSet.place`` loop, kept as the readable reference
  implementation and differential oracle.

Both produce bit-identical :class:`PlacedBlock` results (cycles, op
times, pipe choices); ``REPRO_PLACEMENT_KERNEL=legacy`` flips the
default to the oracle.  Many near-identical streams placed together
(beam rounds, sweep pre-warms) can instead go through
:func:`repro.cost.arena.place_batch`, which runs the fused kernel's
drop loop with prefix sharing across the batch.
"""

from __future__ import annotations

import os
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

    A named tuple rather than a dataclass: placement builds one of
    these per instruction on the hottest path in the repo, and
    ``tuple.__new__`` beats a frozen dataclass's
    ``object.__setattr__`` chain several-fold at equal immutability.
    """

    instr: Instr
    time: int
    completion: int


class _LazyOps:
    """Deferred per-op tuple: the kernels' raw result columns.

    One cell may be shared by many :class:`PlacedBlock` views of the
    same placement (the memo's ``_share``); whoever touches ``.ops``
    first materializes the tuple *into the cell*, so every sharer sees
    the identical object afterwards.
    """

    __slots__ = ("instrs", "times", "completions", "ops")

    def __init__(self, instrs, times: list[int], completions: list[int]):
        self.instrs = instrs
        self.times = times
        self.completions = completions
        self.ops: tuple[PlacedOp, ...] | None = None

    def materialize(self) -> tuple[PlacedOp, ...]:
        ops = self.ops
        if ops is None:
            ops = self.ops = tuple(
                map(PlacedOp, self.instrs, self.times, self.completions))
        return ops


class PlacedBlock:
    """Result of placing a whole instruction stream.

    ``ops`` is an immutable tuple: cached placements share it directly
    (no per-hit copy), and the type itself enforces the "callers must
    not mutate the memo's master" contract.  The columnar kernels hand
    over their raw time/completion columns instead of a prebuilt tuple
    (``lazy=``): search reads only ``cycles``/``block`` for the vast
    majority of candidates, so the 200-odd :class:`PlacedOp` objects
    per stream are built on first ``.ops`` access -- once, even across
    shared memo views.
    """

    __slots__ = ("machine_name", "block", "_ops", "_lazy")

    def __init__(self, machine_name: str,
                 ops: tuple[PlacedOp, ...] = (),
                 block: CostBlock | None = None,
                 *, lazy: _LazyOps | None = None):
        self.machine_name = machine_name
        self.block = block if block is not None else CostBlock.empty()
        self._ops = None if lazy is not None else tuple(ops)
        self._lazy = lazy

    @property
    def ops(self) -> tuple[PlacedOp, ...]:
        ops = self._ops
        if ops is None:
            ops = self._ops = self._lazy.materialize()
        return ops

    @ops.setter
    def ops(self, value: tuple[PlacedOp, ...]) -> None:
        self._ops = tuple(value)
        self._lazy = None

    @property
    def cycles(self) -> int:
        return self.block.cycles


# ----------------------------------------------------------------------
# Kernel selection

_KERNELS = ("fused", "legacy")
_kernel = os.environ.get("REPRO_PLACEMENT_KERNEL", "fused")
if _kernel not in _KERNELS:
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

#: (machine fingerprint, stream digest, focus span) -> master placement.
#: Callers only ever see :func:`_share` views of a master.
_memo: BoundedCache[tuple[str, str, int], PlacedBlock] = \
    BoundedCache("placement", PLACEMENT_CACHE_LIMIT)


def placement_cache_stats() -> dict[str, int]:
    """Snapshot of the placement memo's counters and size."""
    return _memo.snapshot()


def reset_placement_cache() -> None:
    """Drop all memoized placements and zero the counters."""
    _memo.clear()


def _share(placed: PlacedBlock) -> PlacedBlock:
    """A caller-safe view of a cached placement.

    The ops tuple (or the lazy cell it materializes from), the ops
    themselves, and the summary block are all immutable or
    materialize-once, so every field is shared; only the outer
    (mutable) shell is fresh.
    """
    twin = PlacedBlock(placed.machine_name, (), placed.block)
    twin._ops = placed._ops
    twin._lazy = placed._lazy
    return twin


def place_stream(
    machine: Machine,
    instrs: list[Instr] | InstrStream | CompiledStream,
    focus_span: int = DEFAULT_FOCUS_SPAN,
    bins: BinSet | None = None,
    *,
    kernel: str | None = None,
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
    from a bounded LRU; passing explicit ``bins`` (shared, possibly
    pre-filled state) bypasses the memo.  ``instrs`` may be a
    pre-lowered :class:`~repro.cost.columnar.CompiledStream`, in which
    case its cached digest is reused instead of re-hashed.  ``kernel``
    overrides the process default ("fused" or "legacy"); both kernels
    return bit-identical results, so they share the memo.
    """
    if focus_span < 1:
        raise ValueError("focus span must be at least 1")
    if kernel is None:
        kernel = _kernel
    elif kernel not in _KERNELS:
        raise ValueError(f"unknown placement kernel {kernel!r}")

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

    key = None
    if bins is None:
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
            return _share(hit)
    placed = _place_uncached(machine, instr_list, focus_span, bins,
                             kernel, compiled, digest)
    if key is not None:
        _memo.put(key, _share(placed))
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
    with trace_span("cost.place") as span:
        if kernel == "fused":
            bin_set = bins if bins is not None else BinSet(machine)
            if compiled is None:
                compiled = compile_stream(machine, instr_list, digest)
            times, completions = drop_columns(
                compiled, compile_ops(machine), bin_set, focus_span)
            lazy = _LazyOps(compiled.instrs, times, completions)
        else:
            bin_set = bins if bins is not None else BinSet(machine)
            lazy = None
            placed_ops = _place_legacy(machine, instr_list, focus_span,
                                       bin_set)
        if lazy is not None:
            placed = PlacedBlock(machine_name=machine.name, lazy=lazy)
            placed.block = _summarize(bin_set, (), lazy.times,
                                      lazy.completions)
        else:
            placed = PlacedBlock(machine_name=machine.name, ops=placed_ops)
            placed.block = _summarize(bin_set, placed_ops)
        if span.recording:
            span.set(machine=machine.name, ops=len(instr_list),
                     focus_span=focus_span, cycles=placed.cycles,
                     kernel=kernel)
    return placed


def _place_legacy(
    machine: Machine,
    instr_list: list[Instr] | tuple[Instr, ...],
    focus_span: int,
    bin_set: BinSet,
) -> tuple[PlacedOp, ...]:
    """The reference implementation: one ``BinSet.place`` per instruction."""
    completions: dict[int, int] = {}
    placed_ops: list[PlacedOp] = []
    for instr in instr_list:
        op = machine.atomic(instr.atomic)
        ready = 0
        for dep in instr.deps:
            dep_done = completions.get(dep, 0)
            if dep_done > ready:
                ready = dep_done
        floor = bin_set.top() - focus_span
        earliest = max(ready, floor, 0)
        placement = bin_set.place(op.costs, earliest)
        completion = placement.time + op.result_latency
        completions[instr.index] = completion
        placed_ops.append(PlacedOp(instr, placement.time, completion))
    return tuple(placed_ops)


def _summarize(
    bin_set: BinSet,
    ops: tuple[PlacedOp, ...],
    times: list[int] | None = None,
    completions: list[int] | None = None,
) -> CostBlock:
    """Summary block for one placement.

    The columnar kernels already hold the start/completion columns as
    plain int lists; they pass those (with ``ops=()``) so the summary
    never touches -- or forces -- the per-op tuple.  The legacy path,
    which has only ``ops``, omits the columns.
    """
    if completions is None:
        if not ops:
            return CostBlock.empty()
        completions = [op.completion for op in ops]
    elif not completions:
        return CostBlock.empty()
    profiles = {
        bin_id: span
        for bin_id, span in bin_set.profiles().items()
        if span is not None
    }
    if not profiles:
        # Degenerate: only zero-noncoverable ops; anchor at first op time.
        lo = min(times) if times is not None else min(op.time for op in ops)
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
