"""Batch placement: many Tetris drops in one pass, with prefix dedup.

A beam round of 64 sibling candidates, a router sub-batch, or a sweep
width's memo pre-warm places many *near-identical* instruction streams
back to back: siblings differ only where a transformation touched the
program, so their compiled streams share long common prefixes.  The
per-stream kernel (:mod:`repro.cost.columnar`) re-drops every shared
prefix from scratch; :func:`place_batch` doesn't.

Identical streams are deduped on their ``placement_digest`` and the
placement memo is probed per digest; only the misses are lowered, into
one concatenated structure-of-arrays (op-id / dep ``array('q')``
columns with per-stream offsets, dep entries rebased to global
positions), sorted by token sequence so streams sharing a prefix
become neighbours.
Placement then walks the sorted order with a stack of bin-state
snapshots: each stream resumes from the deepest snapshot covered by its
common prefix with the previous stream (the classic suffix-array LCP
argument makes consecutive LCPs sufficient), re-dropping only its
unshared suffix.

Every drop runs the *same* fused loop as the per-stream kernel
(:func:`repro.cost.columnar.drop_range`), just over restored bin state
-- placement from an empty bin set is a pure function of the
instruction prefix (op ids + dependence structure), so resuming a
cloned snapshot and replaying the suffix is bit-identical to an
uninterrupted drop.  ``tests/cost/test_arena_property.py`` enforces
this element-wise against both the columnar kernel and the legacy
``BinSet.place`` oracle.

Tokens are ids of ``(op id, resolved dep positions)`` -- the exact pair
the drop loop consumes -- interned per call, so nothing but the shared
placement memo and the counters outlives a batch.  ``one_time`` flags
and original instruction indices are deliberately *excluded*: placement
never reads them, so excluding them lets streams that differ only there
still share prefix state (their digests differ, their placements
don't).
"""

from __future__ import annotations

import threading
from array import array
from typing import Sequence

from ..machine.compiled import compile_ops
from ..machine.machine import Machine
from ..obs import trace_span
from ..translate.stream import InstrStream, placement_digest
from .bins import BinSet
from .columnar import CompiledStream, _resolve, compile_stream, drop_range
from .placement import (
    DEFAULT_FOCUS_SPAN,
    PlacedBlock,
    _LazyOps,
    _memo,
    _share,
    _summarize,
)

__all__ = ["arena_cache_stats", "place_batch", "reset_arenas"]

#: LCP scan granularity: ``array`` slice equality is a C-level memcmp,
#: so comparing 64 tokens at a time costs ~one Python bytecode per 64
#: tokens on the (overwhelmingly common) equal chunks.
_LCP_CHUNK = 64


def _lcp(a: array, b: array, limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b`` (<= limit)."""
    pos = 0
    while pos < limit:
        step = limit - pos
        if step > _LCP_CHUNK:
            step = _LCP_CHUNK
        if a[pos:pos + step] == b[pos:pos + step]:
            pos += step
            continue
        for k in range(pos, pos + step):
            if a[k] != b[k]:
                return k
    return limit


class _Snapshot:
    """Frozen placement state after the first ``pos`` instructions.

    Immutable once constructed: the bins are restored into the working
    set by copy, so one snapshot can seed any number of forks.
    """

    __slots__ = ("pos", "bins", "times", "completions")

    def __init__(self, pos: int, bins: BinSet,
                 times: list[int], completions: list[int]):
        self.pos = pos
        self.bins = bins
        self.times = times
        self.completions = completions


# ----------------------------------------------------------------------
# Aggregate counters (exported as repro_arena_* gauges on /metrics)

_stats_lock = threading.Lock()


def _zero_stats() -> dict[str, int]:
    return {
        "batches": 0,          # place_batch calls
        "streams": 0,          # streams handed to place_batch
        "dedup": 0,            # duplicate-digest streams answered by a sibling
        "memo_hits": 0,        # streams answered by the placement memo
        "prefix_reuses": 0,    # streams resumed from a prefix snapshot
        "prefix_ops_saved": 0,  # instructions not re-dropped thanks to resume
        "placed": 0,           # streams that ran the drop loop
        "drops": 0,            # instructions actually dropped
    }


_stats = _zero_stats()


def _bump(**deltas: int) -> None:
    with _stats_lock:
        for key, value in deltas.items():
            _stats[key] += value


def arena_cache_stats() -> dict[str, int]:
    """Snapshot of the batch-placement counters."""
    with _stats_lock:
        return dict(_stats)


def reset_arenas() -> None:
    """Zero the batch-placement counters."""
    global _stats
    with _stats_lock:
        _stats = _zero_stats()


# ----------------------------------------------------------------------


def _digest(stream, fingerprint: str) -> str:
    """One batch entry's placement digest, without lowering it."""
    if isinstance(stream, CompiledStream):
        if stream.fingerprint != fingerprint:
            raise ValueError(
                "compiled stream belongs to a different machine "
                f"({stream.fingerprint[:12]} != {fingerprint[:12]})")
        return stream.digest
    if isinstance(stream, InstrStream):
        return stream.digest()
    return placement_digest(stream)


def _compile(machine: Machine, stream, digest: str) -> CompiledStream:
    """Normalize one batch entry to a CompiledStream on ``machine``."""
    if isinstance(stream, CompiledStream):
        return stream
    if isinstance(stream, InstrStream):
        stream = stream.instrs
    return compile_stream(machine, stream, digest)


def _tokenize(stream: CompiledStream, intern: dict[tuple, int]) -> array:
    op_ids = stream.op_ids
    dep_ptr = stream.dep_ptr
    deps = stream.deps
    tokens = array("q")
    for i in range(len(op_ids)):
        key = (op_ids[i], tuple(deps[dep_ptr[i]:dep_ptr[i + 1]]))
        tokens.append(intern.setdefault(key, len(intern)))
    return tokens


def place_batch(
    machine: Machine,
    streams: Sequence,
    focus_span: int = DEFAULT_FOCUS_SPAN,
    *,
    use_memo: bool = True,
) -> list[PlacedBlock]:
    """Place many streams in one pass; results in input order.

    ``streams`` may mix :class:`CompiledStream`,
    :class:`~repro.translate.stream.InstrStream`, and plain ``Instr``
    sequences.  Identical streams (same ``placement_digest``) are
    placed once; distinct streams sorted into prefix-adjacency each
    re-drop only their unshared suffix.  With ``use_memo`` the shared
    placement LRU is probed first and fresh results are stored back.
    """
    if focus_span < 1:
        raise ValueError("focus span must be at least 1")
    ops = compile_ops(machine)
    fingerprint = ops.fingerprint
    results: list[PlacedBlock | None] = [None] * len(streams)
    with trace_span("arena.compile") as span:
        # Full-stream dedup, then a memo probe per unique digest; only
        # the misses are lowered.
        unique: dict[str, list[int]] = {}
        for idx, stream in enumerate(streams):
            unique.setdefault(_digest(stream, fingerprint), []).append(idx)
        dedup = len(streams) - len(unique)
        memo_hits = 0
        need: list[CompiledStream] = []
        for digest, slots in unique.items():
            hit = (_memo.get((fingerprint, digest, focus_span))
                   if use_memo else None)
            if hit is not None:
                memo_hits += 1
                for slot in slots:
                    results[slot] = _share(hit)
                continue
            need.append(_compile(machine, streams[slots[0]], digest))
        intern: dict[tuple, int] = {}
        tokens = [_tokenize(s, intern) for s in need]
        order = sorted(range(len(need)), key=lambda k: tokens[k].tobytes())
        # Consecutive LCPs in sorted order; lcp(i, j) for any i < j is
        # their running minimum, which is all the stack needs.
        lcps = [0] * (len(order) + 1)
        for p in range(1, len(order)):
            a = tokens[order[p - 1]]
            b = tokens[order[p]]
            lcps[p] = _lcp(a, b, min(len(a), len(b)))
        # One structure-of-arrays over every candidate: concatenated
        # columns, dep entries rebased to global stream positions.
        offsets = []
        g_op = array("q")
        g_ptr = array("q", [0])
        g_dep = array("q")
        for k in order:
            stream = need[k]
            off = len(g_op)
            offsets.append(off)
            g_op.extend(stream.op_ids)
            dep_base = len(g_dep)
            g_dep.extend(d + off for d in stream.deps)
            g_ptr.extend(v + dep_base for v in stream.dep_ptr[1:])
        if span.recording:
            span.set(streams=len(streams), unique=len(need),
                     dedup=dedup, memo_hits=memo_hits, ops=len(g_op))

    reuses = saved = dropped = 0
    with trace_span("arena.drop") as span:
        total = len(g_op)
        times = [0] * total
        completions = [0] * total
        stack: list[_Snapshot] = []
        # One *working* bin set for the whole batch, restored in place
        # per stream: the resolved component bindings refer to its
        # SlotArray objects, so resolving once here replaces a
        # per-stream _resolve against a fresh clone.
        work = BinSet(machine)
        resolved = _resolve(ops, work)
        for p, k in enumerate(order):
            stream = need[k]
            n = len(stream)
            off = offsets[p]
            shared = lcps[p]
            while stack and stack[-1].pos > shared:
                stack.pop()
            if stack:
                snap = stack[-1]
                resume = snap.pos
                work.restore_from(snap.bins)
                times[off:off + resume] = snap.times
                completions[off:off + resume] = snap.completions
                reuses += 1
                saved += resume
            else:
                resume = 0
                if p:
                    work.reset()
            pos = resume
            cut = lcps[p + 1]
            if cut > pos:
                # The next stream shares [0, cut): snapshot there so it
                # (and any deeper siblings) fork instead of replaying
                # this prefix.
                drop_range(g_op, g_ptr, g_dep, ops, resolved, work,
                           focus_span, times, completions,
                           off + pos, off + cut)
                stack.append(_Snapshot(cut, work.clone(),
                                       times[off:off + cut],
                                       completions[off:off + cut]))
                pos = cut
            drop_range(g_op, g_ptr, g_dep, ops, resolved, work,
                       focus_span, times, completions, off + pos, off + n)
            dropped += n - resume
            t_col = times[off:off + n]
            c_col = completions[off:off + n]
            placed = PlacedBlock(
                machine_name=machine.name,
                lazy=_LazyOps(stream.instrs, t_col, c_col))
            placed.block = _summarize(work, (), t_col, c_col)
            if use_memo:
                _memo.put((fingerprint, stream.digest, focus_span),
                          _share(placed))
            slots = unique[stream.digest]
            results[slots[0]] = placed
            for slot in slots[1:]:
                results[slot] = _share(placed)
        if span.recording:
            span.set(placed=len(order), dropped=dropped,
                     prefix_reuses=reuses, prefix_ops_saved=saved)
    _bump(batches=1, streams=len(streams), dedup=dedup,
          memo_hits=memo_hits, prefix_reuses=reuses,
          prefix_ops_saved=saved, placed=len(order), drops=dropped)
    return results  # type: ignore[return-value]
