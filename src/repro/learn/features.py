"""Feature extraction for the tiered-fidelity surrogate fast path.

The exact pipeline already computes everything a cheap predictor
needs: every straight-line block is lowered to a
:class:`~repro.cost.columnar.CompiledStream` whose
:class:`~repro.cost.columnar.StreamSummary` carries op-id histograms
and dependence statistics, every loop has a symbolic trip count, and
the machine's cost table is compiled to
:class:`~repro.machine.compiled.CompiledOps`.  This module folds those
into one fixed-width vector per (program, machine) request:

* the *static* part walks the IR once per (machine fingerprint,
  program source, backend flags) -- straight-line blocks contribute
  their stream summaries, each scaled at serve time by the product of
  the enclosing loops' trip counts evaluated at the request's
  bindings.  The exact cost is ``sum(trips_b * cycles_b) + fixed``
  per block, so the true function is close to *linear* in this basis
  -- which is what lets a ridge model fit it tightly;
* block summaries come from the compiled-stream memo, which is keyed
  by (machine fingerprint, placement digest) -- the same columns every
  placement path consumes -- so feature vectors are identical under
  the ``legacy`` and ``fused`` kernels and batch placement *by
  construction*;
* op names hash into a fixed number of buckets
  (:data:`OP_BUCKETS`, stable blake2b hash, never the salted builtin
  ``hash``), so the width is machine-independent.

Static extraction costs one parse + translate and is memoized; the
per-request work is evaluating a handful of trip-count polynomials and
one dot product -- microseconds, which is what the ``fast`` fidelity
tier is for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

from ..analysis.loops import trip_count
from ..cost.columnar import compile_stream
from ..cost.placement import DEFAULT_FOCUS_SPAN
from ..ir.digest import program_digest
from ..ir.nodes import Assign, CallStmt, Do, If, Stmt
from ..ir.parser import parse_program
from ..ir.symtab import SymbolTable
from ..machine.compiled import compile_ops
from ..machine.registry import cached_machine, machine_fingerprint
from ..obs.caches import BoundedCache
from ..symbolic.poly import Poly
from ..translate.backend_opts import AGGRESSIVE_BACKEND, NAIVE_BACKEND
from ..translate.translator import Translator

__all__ = [
    "FEATURE_DIM",
    "FEATURE_VERSION",
    "OP_BUCKETS",
    "StaticFeatures",
    "extract_static",
    "feature_cache_stats",
    "feature_vector",
    "peek_static",
    "reset_feature_cache",
]

#: Bump when the vector layout changes: persisted models only apply to
#: vectors of their own feature version.
FEATURE_VERSION = 1

#: Hashed op-name histogram width (machine-independent).
OP_BUCKETS = 12

#: Weighted slots (scaled by enclosing trip counts, summed over blocks):
#: instrs, latency_sum, noncoverable_sum, dep_edges, dep_dist_sum,
#: loop_iters, then the op buckets.
_WEIGHTED = 6 + OP_BUCKETS
#: Unweighted structural slots: one_time instrs, block count, loop
#: count, max nest depth, max dep distance, focus span.
_STRUCTURAL = 6
#: Machine cost-table summary: op count, mean latency, pipe count,
#: unit-kind count.
_MACHINE = 4

#: Total vector width, bias included.
FEATURE_DIM = 1 + _WEIGHTED + _STRUCTURAL + _MACHINE


def _bucket(name: str) -> int:
    """Stable op-name bucket (builtin ``hash`` is salted per process)."""
    raw = hashlib.blake2b(name.encode(), digest_size=4).digest()
    return int.from_bytes(raw, "big") % OP_BUCKETS


@dataclass(frozen=True)
class StaticFeatures:
    """The binding-independent part of one (program, machine) vector.

    ``blocks`` holds ``(weight polynomial, partial vector)`` pairs:
    the weight is the product of the enclosing loops' symbolic trip
    counts (``Poly.const(1)`` at top level), evaluated per request.
    """

    digest: str                       #: canonical program digest
    fingerprint: str                  #: machine cost-table fingerprint
    backend: str
    include_memory: bool
    blocks: tuple[tuple[Poly, tuple[float, ...]], ...]
    base: tuple[float, ...]           #: structural + machine slots
    variables: frozenset[str]         #: all weight-polynomial variables


# ----------------------------------------------------------------------
# static-extraction memo (bounded; serving hot path must not re-parse)

_memo: BoundedCache[tuple[str, str, str, bool], StaticFeatures] = \
    BoundedCache("features", 1024)


def feature_cache_stats() -> dict[str, int]:
    return _memo.snapshot()


def reset_feature_cache() -> None:
    _memo.clear()


def peek_static(
    source: str,
    machine_name: str,
    backend: str = "aggressive",
    include_memory: bool = False,
) -> StaticFeatures | None:
    """Memo-only lookup: never parses, never translates.

    The serving fast path uses this so a cold program costs the fast
    tier nothing -- it falls through to exact, and the harvested
    sample warms the memo from the trainer thread.
    """
    try:
        fingerprint = machine_fingerprint(machine_name)
    except KeyError:
        return None
    return _memo.peek((fingerprint, source, backend, include_memory))


def extract_static(
    source: str,
    machine_name: str,
    backend: str = "aggressive",
    include_memory: bool = False,
) -> StaticFeatures:
    """Extract (and memoize) the static features of one request shape.

    Raises whatever the parser/translator raises on bad input -- the
    serving path treats any failure as "fall through to exact".
    """
    fingerprint = machine_fingerprint(machine_name)
    key = (fingerprint, source, backend, include_memory)
    static = _memo.get(key)
    if static is None:
        static = _extract(source, machine_name, fingerprint, backend,
                          include_memory)
        _memo.put(key, static)
    return static


def _extract(source: str, machine_name: str, fingerprint: str,
             backend: str, include_memory: bool) -> StaticFeatures:
    program = parse_program(source)
    digest = program_digest(program)
    machine = cached_machine(machine_name)
    ops = compile_ops(machine, fingerprint)
    flags = AGGRESSIVE_BACKEND if backend == "aggressive" else NAIVE_BACKEND
    translator = Translator(machine, SymbolTable.from_program(program), flags)
    buckets = [_bucket(name) for name in ops.names]

    blocks: list[tuple[Poly, tuple[float, ...]]] = []
    counters = {"one_time": 0, "blocks": 0, "loops": 0,
                "max_depth": 0, "dist_max": 0}

    def flush(buffer: list[Stmt], enclosing: tuple[str, ...],
              weight: Poly) -> None:
        if not buffer:
            return
        stmts = tuple(buffer)
        buffer.clear()
        info = translator.translate_block(stmts, enclosing)
        instrs = tuple(info.stream)
        counters["blocks"] += 1
        if not instrs:
            return
        summary = compile_stream(machine, instrs,
                                 fingerprint=fingerprint).summary
        vec = [0.0] * _WEIGHTED
        vec[0] = float(summary.length)
        vec[1] = float(summary.latency_sum)
        vec[2] = float(summary.noncoverable_sum)
        vec[3] = float(summary.dep_edges)
        vec[4] = float(summary.dep_dist_sum)
        for oid, count in enumerate(summary.op_counts):
            if count:
                vec[6 + buckets[oid]] += float(count)
        blocks.append((weight, tuple(vec)))
        counters["one_time"] += summary.one_time
        if summary.dep_dist_max > counters["dist_max"]:
            counters["dist_max"] = summary.dep_dist_max

    loop_vec = tuple(1.0 if i == 5 else 0.0 for i in range(_WEIGHTED))

    def walk(stmts: tuple[Stmt, ...], enclosing: tuple[str, ...],
             weight: Poly, depth: int) -> None:
        buffer: list[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                buffer.append(stmt)
                continue
            flush(buffer, enclosing, weight)
            if isinstance(stmt, CallStmt):
                if stmt.name != "return":
                    flush([stmt], enclosing, weight)
                continue
            if isinstance(stmt, Do):
                counters["loops"] += 1
                if depth + 1 > counters["max_depth"]:
                    counters["max_depth"] = depth + 1
                inner = weight * trip_count(stmt).poly
                # Per-iteration loop bookkeeping rides in a dedicated
                # slot, so the model can price the overhead triple.
                blocks.append((inner, loop_vec))
                walk(stmt.body, enclosing + (stmt.var,), inner, depth + 1)
            elif isinstance(stmt, If):
                walk(stmt.then_body, enclosing, weight, depth)
                walk(stmt.else_body, enclosing, weight, depth)
            else:
                raise TypeError(f"cannot featurize statement {stmt!r}")
        flush(buffer, enclosing, weight)

    walk(program.body, (), Poly.const(1), 0)

    latency = ops.latency
    mean_latency = (sum(latency) / len(latency)) if len(latency) else 0.0
    base = (
        float(counters["one_time"]),
        float(counters["blocks"]),
        float(counters["loops"]),
        float(counters["max_depth"]),
        float(counters["dist_max"]),
        float(DEFAULT_FOCUS_SPAN),
        float(len(ops)),
        float(mean_latency),
        float(sum(len(p) for p in ops.pipes)),
        float(len(ops.kinds)),
    )
    variables: set[str] = set()
    for weight, _vec in blocks:
        variables.update(weight.variables())
    return StaticFeatures(
        digest=digest,
        fingerprint=fingerprint,
        backend=backend,
        include_memory=include_memory,
        blocks=tuple(blocks),
        base=base,
        variables=frozenset(variables),
    )


def feature_vector(static: StaticFeatures,
                   bindings: Mapping[str, Any]) -> list[float] | None:
    """The full vector at one evaluation point, or ``None`` if unbound.

    ``bindings`` values must be numeric (the engine converts wire
    bindings via ``parse_bindings`` first).  Trip-count polynomials
    evaluating negative (empty loops) clamp to zero, matching the
    Fortran trip-count floor.
    """
    values = {name: float(value) for name, value in bindings.items()}
    x = [0.0] * FEATURE_DIM
    x[0] = 1.0
    try:
        for weight, vec in static.blocks:
            w = weight.evaluate_float(values)
            if w <= 0.0:
                continue
            for i, v in enumerate(vec):
                if v:
                    x[1 + i] += w * v
    except (KeyError, OverflowError, ZeroDivisionError):
        return None
    offset = 1 + _WEIGHTED
    for i, v in enumerate(static.base):
        x[offset + i] = v
    return x
