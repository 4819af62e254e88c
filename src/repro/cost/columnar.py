"""Columnar stream lowering and the fused multi-bin placement kernel.

Placement (paper section 2.1) is the hottest loop in the repo: every
predict, every beam-search round, and every service request funnels
through it.  The legacy path (:meth:`repro.cost.bins.BinSet.place`,
kept as the differential oracle) pays, per instruction, a
``machine.atomic(name)`` dict lookup, a fresh ``needed = [...]`` list
allocation, and a chain of method calls (``place`` -> ``_best_pipe`` ->
``next_fit`` -> ``_block_containing``) that restarts the whole per-pipe
walk from scratch each time the candidate time bumps.

This module compiles both invariants out of the inner loop:

* a :class:`CompiledStream` lowers an instruction list into flat
  parallel ``array('q')`` columns -- dense op ids, dep index ranges
  into one shared dep array, one-time flags.  Lowering is not
  memoized: callers reach it only behind a placement-memo miss, and
  the placement memo is keyed on the same (machine fingerprint,
  stream digest);
* :func:`drop_columns` is the fused multi-bin Tetris drop: it walks
  the signed-block free lists of all required pipes in lockstep,
  caching each component's earliest feasible start and recomputing
  only the components that are *not* yet feasible at the bumped
  candidate (the binding units), instead of re-running every pipe's
  ``next_fit`` from the new floor.

The kernel is bit-identical to the legacy path -- same landing times,
same pipe choices, same bin state -- which
``tests/cost/test_placement_property.py`` and the E-KERNEL bench
verify against both the legacy implementation and a brute-force
dense-grid oracle.  The identity argument, in one paragraph: the
legacy restart loop converges to the smallest ``t >= earliest`` that
is simultaneously feasible for every component (each restart jumps to
``max`` of per-component ``next_fit`` values, which never overshoots
the answer and never revisits an infeasible slot), and ties between
pipes break toward the first pipe in machine order whose run fits at
``t``.  The fused kernel computes exactly that fixpoint: a component
whose cached candidate equals the bumped ``t`` is already feasible
there with the same first-fitting pipe (any earlier pipe had no fit
below its own, larger, candidate), so skipping its recomputation
cannot change the result.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ..machine.compiled import CompiledOps, compile_ops
from ..machine.machine import Machine
from ..translate.stream import Instr, placement_digest
from .bins import BinSet

__all__ = [
    "CompiledStream",
    "StreamSummary",
    "compile_stream",
    "drop_columns",
    "drop_range",
]


class StreamSummary(NamedTuple):
    """Aggregate view of one compiled stream's columns.

    Everything here falls out of the single lowering pass, so callers
    that need histogram/dependence statistics (the learned surrogate's
    feature extractor, telemetry summaries) read this instead of
    re-walking the ``array('q')`` columns per use.  Counts are keyed by
    the machine's dense op ids -- resolve names via
    :attr:`CompiledOps.names`.
    """

    length: int                 #: instruction count
    op_counts: tuple[int, ...]  #: per dense op id, len == len(ops.names)
    dep_edges: int              #: resolved dependence edges
    dep_dist_sum: int           #: sum of producer->consumer distances
    dep_dist_max: int           #: longest producer->consumer distance
    one_time: int               #: loop-invariant instructions
    latency_sum: int            #: sum of result latencies
    noncoverable_sum: int       #: sum of noncoverable unit cycles


@dataclass(frozen=True)
class CompiledStream:
    """Flat columnar view of one instruction stream on one machine."""

    fingerprint: str          #: machine fingerprint the op ids belong to
    digest: str               #: placement digest of the stream
    instrs: tuple[Instr, ...]  #: originals, for PlacedOp construction
    op_ids: array             #: 'q' column: dense op id per instruction
    dep_ptr: array            #: 'q' column, n+1 entries: deps[dep_ptr[i]:dep_ptr[i+1]]
    #: 'q' shared dependence-edge array.  Entries are stream *positions*
    #: (not ``Instr.index`` values): lowering resolves each dep to the
    #: latest earlier instruction with that index and drops unresolvable
    #: deps, mirroring the legacy ``completions.get(dep, 0)`` semantics.
    deps: array
    one_time: array           #: 'b' column: loop-invariant flags
    summary: StreamSummary    #: column aggregates, built during lowering

    def __len__(self) -> int:
        return len(self.instrs)


def compile_stream(
    machine: Machine,
    instrs: Sequence[Instr],
    digest: str | None = None,
    *,
    fingerprint: str | None = None,
) -> CompiledStream:
    """Lower ``instrs`` to columns on ``machine``.

    ``digest`` / ``fingerprint`` let callers that already computed them
    (the placement memo does) skip the re-hash.
    """
    if digest is None:
        digest = placement_digest(instrs)
    return _lower(compile_ops(machine, fingerprint), instrs, digest)


def _lower(ops: CompiledOps, instrs: Sequence[Instr],
           digest: str) -> CompiledStream:
    index_of = ops.index_of
    latency = ops.latency
    components = ops.components
    op_ids = array("q", bytes(0))
    dep_ptr = array("q", [0])
    deps = array("q", bytes(0))
    one_time = array("b", bytes(0))
    last_pos: dict[int, int] = {}
    counts = [0] * len(ops.names)
    dep_edges = dep_dist_sum = dep_dist_max = 0
    one_time_count = latency_sum = noncoverable_sum = 0
    for pos, instr in enumerate(instrs):
        oid = index_of[instr.atomic]
        op_ids.append(oid)
        counts[oid] += 1
        latency_sum += latency[oid]
        comps = components[oid]
        if comps:
            for _slot, length in comps:
                noncoverable_sum += length
        for dep in instr.deps:
            p = last_pos.get(dep, -1)
            if p >= 0:
                deps.append(p)
                dep_edges += 1
                dist = pos - p
                dep_dist_sum += dist
                if dist > dep_dist_max:
                    dep_dist_max = dist
        dep_ptr.append(len(deps))
        if instr.one_time:
            one_time.append(1)
            one_time_count += 1
        else:
            one_time.append(0)
        last_pos[instr.index] = pos
    return CompiledStream(
        fingerprint=ops.fingerprint,
        digest=digest,
        instrs=tuple(instrs),
        op_ids=op_ids,
        dep_ptr=dep_ptr,
        deps=deps,
        one_time=one_time,
        summary=StreamSummary(
            length=len(op_ids),
            op_counts=tuple(counts),
            dep_edges=dep_edges,
            dep_dist_sum=dep_dist_sum,
            dep_dist_max=dep_dist_max,
            one_time=one_time_count,
            latency_sum=latency_sum,
            noncoverable_sum=noncoverable_sum,
        ),
    )


# ----------------------------------------------------------------------
# The fused kernel


def _next_fit(arr, start: int, length: int) -> int:
    """Inlined ``SlotArray.next_fit``: block walk over the raw cells.

    Behaviourally identical to the method (including the search-hint
    update at the containing block); exists so the kernel's innermost
    loop costs one function call per pipe probe instead of three.
    """
    cells = arr.cells
    capacity = len(cells)
    if start >= capacity:
        return start
    pos = arr._hint
    if pos > start:
        pos = 0
    while True:
        value = cells[pos]
        size = value if value > 0 else -value
        if pos + size > start:
            break
        pos += size
    arr._hint = pos
    block_start = pos
    filled = value > 0
    while True:
        if not filled:
            usable = block_start if block_start > start else start
            block_end = block_start + size
            if block_end >= capacity:
                return usable          # final empty block: implicitly infinite
            if block_end - usable >= length:
                return usable
        block_start += size
        if block_start >= capacity:
            return block_start if block_start > start else start
        value = cells[block_start]
        size = value if value > 0 else -value
        filled = value > 0


def _fill_run(arr, start: int, length: int) -> None:
    """Inlined ``SlotArray.fill`` for a run known to be free.

    The kernel only fills at positions ``_next_fit`` just returned, so
    the emptiness re-validation (and its extra block walks) that the
    public method pays is provably redundant here.  Cell writes, growth
    policy, hint retreat, and the filled bookkeeping all mirror the
    method exactly -- the differential tests compare the resulting bin
    state field by field.
    """
    cells = arr.cells
    capacity = len(cells)
    needed = start + length
    if needed > capacity:
        doubled = capacity * 2
        new_capacity = needed if needed > doubled else doubled
        extra = new_capacity - capacity
        last_value = cells[capacity - 1]
        cells.extend([0] * extra)
        if last_value < 0:
            size = -last_value
            value = -(size + extra)
            cells[capacity - size] = value
        else:
            value = -extra
            cells[capacity] = value
        cells[new_capacity - 1] = value
        capacity = new_capacity
    pos = arr._hint
    if pos > start:
        pos = 0
    while True:
        value = cells[pos]
        size = value if value > 0 else -value
        if pos + size > start:
            break
        pos += size
    block_start = pos
    block_end = block_start + size
    fill_end = start + length
    new_start = start
    new_len = length
    rewritten_end = block_end
    if block_start < start:
        value = -(start - block_start)
        cells[block_start] = value
        cells[start - 1] = value
    elif block_start > 0 and cells[block_start - 1] > 0:
        prev_size = cells[block_start - 1]
        new_start = block_start - prev_size
        new_len += prev_size
    if fill_end < block_end:
        value = -(block_end - fill_end)
        cells[fill_end] = value
        cells[block_end - 1] = value
    elif fill_end < capacity and cells[fill_end] > 0:
        next_size = cells[fill_end]
        new_len += next_size
        rewritten_end = fill_end + next_size
    cells[new_start] = new_len
    cells[new_start + new_len - 1] = new_len
    if new_start <= arr._hint <= rewritten_end:
        arr._hint = new_start
    arr.filled_total += length
    lowest = arr._lowest_filled
    if lowest is None or start < lowest:
        arr._lowest_filled = start
    highest = arr._highest_filled
    if highest is None or fill_end - 1 > highest:
        arr._highest_filled = fill_end - 1


def _drop_single(arr, start: int, length: int) -> int:
    """Find the next fit *and* fill it, in one block walk.

    The single-component, single-pipe case (every op on a machine with
    one pipe per unit) has no restart loop and no pipe choice: the
    first feasible slot is the answer, so the search already stands on
    the empty block that ``_fill_run`` would re-walk to.  Growth and
    the implicit tail fall back to :func:`_fill_run`; the common
    in-capacity fill splits/merges right here.  Returns the slot.
    """
    cells = arr.cells
    capacity = len(cells)
    block_start = -1
    if start >= capacity:
        t = start
    else:
        pos = arr._hint
        if pos > start:
            pos = 0
        while True:
            value = cells[pos]
            size = value if value > 0 else -value
            if pos + size > start:
                break
            pos += size
        arr._hint = pos
        block_start = pos
        filled = value > 0
        while True:
            if not filled:
                usable = block_start if block_start > start else start
                block_end = block_start + size
                if block_end >= capacity or block_end - usable >= length:
                    t = usable
                    break
            block_start += size
            if block_start >= capacity:
                t = block_start if block_start > start else start
                block_start = -1
                break
            value = cells[block_start]
            size = value if value > 0 else -value
            filled = value > 0
    fill_end = t + length
    if block_start < 0 or fill_end > capacity:
        _fill_run(arr, t, length)
        return t
    block_end = block_start + size
    new_start = t
    new_len = length
    rewritten_end = block_end
    if block_start < t:
        value = -(t - block_start)
        cells[block_start] = value
        cells[t - 1] = value
    elif block_start > 0 and cells[block_start - 1] > 0:
        prev_size = cells[block_start - 1]
        new_start = block_start - prev_size
        new_len += prev_size
    if fill_end < block_end:
        value = -(block_end - fill_end)
        cells[fill_end] = value
        cells[block_end - 1] = value
    elif fill_end < capacity and cells[fill_end] > 0:
        next_size = cells[fill_end]
        new_len += next_size
        rewritten_end = fill_end + next_size
    cells[new_start] = new_len
    cells[new_start + new_len - 1] = new_len
    if new_start <= arr._hint <= rewritten_end:
        arr._hint = new_start
    arr.filled_total += length
    lowest = arr._lowest_filled
    if lowest is None or t < lowest:
        arr._lowest_filled = t
    highest = arr._highest_filled
    if highest is None or fill_end - 1 > highest:
        arr._highest_filled = fill_end - 1
    return t


def _resolve(ops: CompiledOps, bin_set: BinSet):
    """Bind each op's components to the bin set's actual slot arrays."""
    arrays = bin_set.arrays
    by_kind = [tuple(arrays[b] for b in pipe_ids) for pipe_ids in ops.pipes]
    resolved: list[tuple[tuple[tuple, int], ...] | None] = []
    for comps in ops.components:
        if comps is None:
            resolved.append(None)
        else:
            resolved.append(tuple((by_kind[slot], length)
                                  for slot, length in comps))
    return resolved


def drop_columns(
    stream: CompiledStream,
    ops: CompiledOps,
    bin_set: BinSet,
    focus_span: int,
) -> tuple[list[int], list[int]]:
    """Place a compiled stream; returns (start time, completion) columns.

    Mutates ``bin_set`` exactly as the legacy per-instruction
    ``BinSet.place`` loop would (same fills, same running top).
    """
    n = len(stream.instrs)
    times = [0] * n
    completions = [0] * n
    drop_range(stream.op_ids, stream.dep_ptr, stream.deps, ops,
               _resolve(ops, bin_set), bin_set, focus_span,
               times, completions, 0, n)
    return times, completions


def drop_range(
    op_ids,
    dep_ptr,
    dep_col,
    ops: CompiledOps,
    resolved,
    bin_set: BinSet,
    focus_span: int,
    times: list[int],
    completions: list[int],
    lo: int,
    hi: int,
) -> None:
    """The fused drop over instructions ``[lo, hi)`` of raw columns.

    This is :func:`drop_columns` with the stream columns unbundled and
    the iteration range made explicit, which is what the batch
    placement arena (:mod:`repro.cost.arena`) needs: it concatenates
    many streams into one set of columns (dep entries rebased to global
    positions) and resumes a stream's drop at its shared-prefix
    boundary, with ``times``/``completions[0:lo]`` and ``bin_set``
    restored from a snapshot.  ``resolved`` is
    ``_resolve(ops, bin_set)`` -- component bindings are per
    :class:`BinSet`, so a caller that clones bins must re-resolve.

    With ``lo=0``, ``hi=n``, and zeroed output columns this is the
    exact ``drop_columns`` loop -- same fills, same running top, same
    tie-breaks -- which is what keeps the arena bit-identical to the
    per-stream kernels by construction.
    """
    latency = ops.latency
    names = ops.names
    top = bin_set._top
    j = dep_ptr[lo]

    for i in range(lo, hi):
        oid = op_ids[i]
        # Ready time: the max completion of this op's producers.  The
        # dep column is consumed left to right, so a rolling pointer
        # replaces two index loads per instruction.
        ready = 0
        j_end = dep_ptr[i + 1]
        while j < j_end:
            done = completions[dep_col[j]]
            if done > ready:
                ready = done
            j += 1
        # Focus-span floor against the *running* top, as legacy does.
        floor = top - focus_span
        t = ready if ready > floor else floor
        if t < 0:
            t = 0
        comps = resolved[oid]
        if comps is None:
            raise KeyError(
                f"atomic op {names[oid]} needs a unit this machine lacks")
        if comps:
            ncomp = len(comps)
            if ncomp == 1:
                pipes, length = comps[0]
                if len(pipes) == 1:
                    t = _drop_single(pipes[0], t, length)
                    end = t + length
                    if end > top:
                        top = end
                    times[i] = t
                    completions[i] = t + latency[oid]
                    continue
                else:
                    best = -1
                    arr = None
                    for pipe in pipes:
                        c = _next_fit(pipe, t, length)
                        if best < 0 or c < best:
                            best, arr = c, pipe
                            if c == t:
                                break
                    t = best
                _fill_run(arr, t, length)
                end = t + length
                if end > top:
                    top = end
            else:
                cand = [0] * ncomp
                chosen: list = [None] * ncomp
                first = True
                while True:
                    worst = t
                    for ci in range(ncomp):
                        # A component whose cached candidate equals the
                        # bumped t is already feasible there, with the
                        # same first-fitting pipe: skip it.
                        if not first and cand[ci] == t:
                            continue
                        pipes, length = comps[ci]
                        best = -1
                        barr = None
                        for pipe in pipes:
                            c = _next_fit(pipe, t, length)
                            if best < 0 or c < best:
                                best, barr = c, pipe
                                if c == t:
                                    break
                        cand[ci] = best
                        chosen[ci] = barr
                        if best > worst:
                            worst = best
                    first = False
                    if worst == t:
                        break
                    t = worst
                for ci in range(ncomp):
                    length = comps[ci][1]
                    _fill_run(chosen[ci], t, length)
                    end = t + length
                    if end > top:
                        top = end
        times[i] = t
        completions[i] = t + latency[oid]

    bin_set._top = top
