"""Width-sweep evaluation: one program across a machine-family ladder.

Answers "how does this loop scale from 2-wide to 8-wide?" in one call,
for roughly the cost of a couple of single predictions rather than one
per width.  Every family member shares the base machine's cost table
and atomic mapping (:func:`repro.machine.family.family_machine`), so
the ladder shares almost everything:

* the program is parsed and **translated once** -- a memoizing
  translator facade replays width-invariant instruction streams to
  every width's aggregator (fresh stream copies per width: the loop
  aggregator appends overhead instructions in place);
* stream *preparation* (iterative/invariant splits, unroll
  replication, the synthetic bounds blocks) is computed once and
  shared, so every width reaches the placement memo with pre-digested
  streams;
* widths whose scaled unit configurations coincide (placement is
  dispatch-width-blind) share one aggregation outright.

Per width, the placement-based cycle count is combined with the Charm
mechanistic in-order model (:mod:`repro.machine.family`):

    T = max(placement, N/W) + pmisses

The placement covers unit contention and dependence stalls but not
the fetch bound ``N/W``, so the max of the two is the base term;
optional branch-miss / cache-miss rates add the probabilistic penalty
terms.  The *saturation width* is the smallest width whose cycles are
within 1% of the ladder's best.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .aggregate.aggregator import CostAggregator
from .cost.costblock import CostBlock
from .cost.estimator import BlockCost, StraightLineEstimator
from .cost.overlap import steady_state_cycles
from .cost.placement import DEFAULT_FOCUS_SPAN, place_stream
from .ir.nodes import Assign, Program, VarRef
from .ir.symtab import SymbolTable
from .machine.family import family_machine, family_width_ladder, \
    mechanistic_cycles
from .machine.machine import Machine
from .obs import BoundedCache, trace_span
from .symbolic.expr import PerfExpr
from .translate.backend_opts import AGGRESSIVE_BACKEND, BackendFlags
from .translate.stream import Instr, InstrStream, reindex
from .translate.translator import BlockInfo

__all__ = ["SweepPoint", "SweepOutcome", "sweep_program", "sweep_stats"]

#: Process-local sweep telemetry, exported as ``repro_sweep_*`` gauges.
_STATS = {"sweeps": 0, "widths": 0, "shared_translations": 0,
          "symbolic_hits": 0}


def sweep_stats() -> dict[str, int]:
    """Cumulative sweep counters for this process."""
    return dict(_STATS)


@dataclass(frozen=True)
class SweepPoint:
    """One width's verdict."""

    width: int
    cycles: float
    ipc: float
    fingerprint: str
    placement_cycles: float
    penalty_cycles: float


@dataclass(frozen=True)
class SweepOutcome:
    """The full ladder plus its summary statistics."""

    machine: str
    widths: tuple[int, ...]
    points: tuple[SweepPoint, ...]
    saturation_width: int
    instructions: float
    shared_translations: int


class _SharedTranslation:
    """Replays width-invariant translations to every family member.

    Family machines share the cost table, atomic mapping, FMA support,
    and register counts, so translation output is identical across the
    ladder.  The facade memoizes by statement identity (the same
    parsed ``Program`` objects are walked for every width).  Streams
    are handed out as *fresh copies*: the loop aggregator appends
    loop-overhead instructions to the block stream it receives, so
    sharing one stream object across widths would corrupt the memo.
    """

    def __init__(self, translator):
        self._translator = translator
        self._memo: dict = {}
        self.hits = 0

    def _cached(self, key, build) -> BlockInfo:
        info = self._memo.get(key)
        if info is None:
            info = build()
            self._memo[key] = info
        else:
            self.hits += 1
        stream = InstrStream(list(info.stream.instrs),
                             info.stream.machine_name, info.stream.label)
        return BlockInfo(
            stream=stream,
            reductions=list(info.reductions),
            carried_latency=info.carried_latency,
            has_carried_chain=info.has_carried_chain,
            spills=info.spills,
            external_calls=list(info.external_calls),
        )

    def translate_block(self, stmts, loop_indices=(), label=""):
        key = ("block", tuple(id(s) for s in stmts), tuple(loop_indices))
        return self._cached(key, lambda: self._translator.translate_block(
            stmts, loop_indices, label))

    def translate_condition(self, cond, loop_indices=(), label="cond"):
        key = ("cond", id(cond), tuple(loop_indices))
        return self._cached(key, lambda: self._translator.translate_condition(
            cond, loop_indices, label))

    def loop_overhead(self, label="loop-overhead"):
        return self._cached(("overhead",),
                            lambda: self._translator.loop_overhead(label))


class _SweepEstimator(StraightLineEstimator):
    """Estimator whose stream preparation is shared across the ladder.

    The iterative/invariant splits and unroll replications a
    :class:`StraightLineEstimator` would rebuild per call are computed
    once per sweep, wrapped in :class:`InstrStream` so their placement
    digests are hashed once, and reused by every width -- later widths
    probe the placement memo without rebuilding or re-hashing a stream.
    """

    def __init__(self, machine: Machine, focus_span: int, parts: dict):
        super().__init__(machine, focus_span)
        #: (digest, role) -> prepared InstrStream, shared per sweep.
        self._parts = parts

    def _prepare(self, key, build) -> InstrStream:
        stream = self._parts.get(key)
        if stream is None:
            stream = InstrStream(build())
            self._parts[key] = stream
        return stream

    def estimate(self, stream: InstrStream) -> BlockCost:
        digest = stream.digest()
        iterative = self._prepare(
            (digest, "iter"),
            lambda: reindex([i for i in stream if not i.one_time]))
        invariant = self._prepare(
            (digest, "inv"),
            lambda: reindex([i for i in stream if i.one_time]))
        placed = place_stream(self.machine, iterative, self.focus_span)
        placed_inv = place_stream(self.machine, invariant, self.focus_span)
        return BlockCost(
            cycles=placed.cycles,
            one_time_cycles=placed_inv.cycles,
            steady_cycles=steady_state_cycles(placed.block),
            block=placed.block,
            one_time_block=placed_inv.block,
            placed=placed,
        )

    def estimate_unrolled(self, stream: InstrStream, factor: int) -> BlockCost:
        if factor < 1:
            raise ValueError("unroll factor must be >= 1")
        replicated = self._prepare(
            (stream.digest(), factor), lambda: _replicate(stream, factor))
        placed = place_stream(self.machine, replicated, self.focus_span)
        return BlockCost(
            cycles=placed.cycles,
            one_time_cycles=0,
            steady_cycles=steady_state_cycles(placed.block),
            block=placed.block,
            one_time_block=CostBlock.empty(),
            placed=placed,
        )


def _replicate(stream: InstrStream, factor: int) -> list[Instr]:
    """The estimator's repeated-dropping stream for ``factor`` copies."""
    iterative = [i for i in stream if not i.one_time]
    replicated: list[Instr] = []
    base = 0
    for _ in range(factor):
        for instr in reindex(iterative):
            replicated.append(Instr(
                index=base + instr.index,
                atomic=instr.atomic,
                deps=tuple(base + d for d in instr.deps),
                tag=instr.tag,
            ))
        base += len(iterative)
    return replicated


class _SweepAggregator(CostAggregator):
    """Aggregator whose synthetic IR nodes are shared across widths.

    ``bounds_cost`` builds fresh synthetic assignments per call; the
    shared-translation facade keys on statement identity, so without
    this cache every width would re-translate every loop's bounds.
    """

    def __init__(self, machine, symtab, flags, focus_span, bounds_memo):
        super().__init__(machine, symtab, flags, focus_span=focus_span)
        self._bounds_memo = bounds_memo

    def bounds_cost(self, loop) -> PerfExpr:
        synthetic = self._bounds_memo.get(id(loop))
        if synthetic is None:
            synthetic = tuple(
                Assign(VarRef(f"__bound{i}"), expr)
                for i, expr in enumerate((loop.lb, loop.ub, loop.step))
            )
            self._bounds_memo[id(loop)] = synthetic
        info = self.translator.translate_block(synthetic, ())
        cost = self.estimator.estimate(info.stream)
        return PerfExpr.const(cost.cycles + cost.one_time_cycles)


class _InstrCountEstimator:
    """Drop-in estimator whose "cycles" are instruction counts.

    Aggregating with it yields the symbolic instruction count ``N`` of
    the mechanistic model's ``N/W`` term (loop overhead included).
    """

    def __init__(self, machine: Machine, focus_span: int = 0):
        self.machine = machine
        self.focus_span = focus_span

    def estimate(self, stream: InstrStream) -> BlockCost:
        iterative = len([i for i in stream if not i.one_time])
        invariant = len(stream) - iterative
        return BlockCost(
            cycles=iterative,
            one_time_cycles=invariant,
            steady_cycles=iterative,
            block=CostBlock.empty(),
            one_time_block=CostBlock.empty(),
            placed=None,
        )

    def estimate_unrolled(self, stream: InstrStream, factor: int) -> BlockCost:
        base = self.estimate(stream)
        return BlockCost(
            cycles=base.cycles * factor,
            one_time_cycles=0,
            steady_cycles=base.cycles * factor,
            block=CostBlock.empty(),
            one_time_block=CostBlock.empty(),
            placed=None,
        )

    def recommend_unroll(self, stream, candidates=(1, 2, 4, 8)) -> int:
        return 1


@dataclass(frozen=True)
class _SymbolicSweep:
    """The binding-independent half of a sweep.

    Everything here depends only on the program's *structure*, the
    base machine's cost table, and the ladder -- never on bindings or
    miss rates -- so callers that present a content key (the service
    passes the program digest) can reuse it across requests and pay
    only two polynomial evaluations per width.
    """

    count_expr: PerfExpr
    placement_exprs: tuple[PerfExpr, ...]
    fingerprints: tuple[str, ...]
    shared_translations: int


#: (cache_key, id(base), ladder, flags, focus_span) -> (base, symbolic).
#: The base machine rides in the value so a recycled id() after a
#: recalibration (new table object, same name) can never serve stale.
_SYMBOLIC_MEMO: BoundedCache[tuple, tuple[Machine, _SymbolicSweep]] = \
    BoundedCache("sweep_symbolic", 128)


def _build_symbolic(program, members, symtab, flags,
                    focus_span) -> _SymbolicSweep:
    """One shared-translation pass over the ladder, kept symbolic."""
    shared = _SharedTranslation(
        CostAggregator(members[0], symtab, flags,
                       focus_span=focus_span).translator)
    parts: dict = {}
    bounds_memo: dict = {}

    # Symbolic instruction count N, aggregated once with the counting
    # estimator (the stub never places anything); shares the facade.
    count_agg = _SweepAggregator(members[0], symtab, flags, focus_span,
                                 bounds_memo)
    count_agg.translator = shared
    count_agg.estimator = _InstrCountEstimator(members[0])
    count_expr = count_agg.cost_program(program)

    # Placement is dispatch-width-blind, so widths whose scaled unit
    # configurations coincide share one symbolic aggregation.
    exprs_by_units: dict[tuple, PerfExpr] = {}
    placement_exprs: list[PerfExpr] = []
    for member in members:
        signature = tuple((unit.kind, unit.count) for unit in member.units)
        expr = exprs_by_units.get(signature)
        if expr is None:
            with trace_span("sweep.width") as span:
                aggregator = _SweepAggregator(member, symtab, flags,
                                              focus_span, bounds_memo)
                aggregator.translator = shared
                aggregator.estimator = _SweepEstimator(member, focus_span,
                                                       parts)
                expr = aggregator.cost_program(program)
                exprs_by_units[signature] = expr
                if span.recording:
                    span.set(width=member.dispatch_width,
                             machine=member.name)
        placement_exprs.append(expr)

    _STATS["shared_translations"] += shared.hits
    return _SymbolicSweep(
        count_expr=count_expr,
        placement_exprs=tuple(placement_exprs),
        fingerprints=tuple(m.fingerprint() for m in members),
        shared_translations=shared.hits,
    )


def sweep_program(
    program: Program,
    *,
    machine: str | Machine = "power",
    widths: Sequence[int] | None = None,
    bindings: Mapping[str, Fraction] | None = None,
    branch_miss_rate: float = 0.0,
    cache_miss_rate: float = 0.0,
    flags: BackendFlags = AGGRESSIVE_BACKEND,
    focus_span: int = DEFAULT_FOCUS_SPAN,
    saturation_tolerance: float = 0.01,
    cache_key: str | None = None,
) -> SweepOutcome:
    """Evaluate ``program`` across a width ladder of ``machine``'s family.

    ``bindings`` must cover the program's free size variables (the
    per-width points are numeric); a fully constant program needs
    none.  Raises ``KeyError`` for missing bindings and ``ValueError``
    for bad widths/rates -- both client errors at the service layer.

    ``cache_key`` (a content digest of the program) lets repeat sweeps
    of the same program skip straight to evaluation: the symbolic half
    is memoized per (key, base machine identity, ladder, flags), so a
    new ``bindings`` or miss rate costs two polynomial evaluations per
    width instead of a translation-and-placement pass.
    """
    if not 0.0 <= branch_miss_rate <= 1.0:
        raise ValueError(f"branch_miss_rate must be in [0, 1], "
                         f"got {branch_miss_rate}")
    if not 0.0 <= cache_miss_rate <= 1.0:
        raise ValueError(f"cache_miss_rate must be in [0, 1], "
                         f"got {cache_miss_rate}")
    ladder = family_width_ladder(widths)
    bindings = dict(bindings or {})
    if isinstance(machine, Machine):
        base = machine
    else:
        from .machine.registry import cached_machine

        base = cached_machine(str(machine))
    members = [family_machine(width, base=base) for width in ladder]

    symbolic = None
    memo_key = None
    if cache_key is not None:
        memo_key = (cache_key, id(base), ladder, flags, focus_span)
        entry = _SYMBOLIC_MEMO.get(memo_key)
        if entry is not None and entry[0] is base:
            symbolic = entry[1]
            _STATS["symbolic_hits"] += 1
    if symbolic is None:
        symtab = SymbolTable.from_program(program)
        symbolic = _build_symbolic(program, members, symtab, flags,
                                   focus_span)
        if memo_key is not None:
            _SYMBOLIC_MEMO.put(memo_key, (base, symbolic))

    instructions = float(symbolic.count_expr.evaluate(bindings))
    points = []
    for member, width, expr, fingerprint in zip(
            members, ladder, symbolic.placement_exprs,
            symbolic.fingerprints):
        place_cycles = float(expr.evaluate(bindings))
        base_cycles = max(place_cycles, instructions / width)
        terms = mechanistic_cycles(
            member, instructions, base_cycles,
            branch_miss_rate=branch_miss_rate,
            cache_miss_rate=cache_miss_rate,
        )
        total = terms.total
        points.append(SweepPoint(
            width=width,
            cycles=round(total, 4),
            ipc=round(instructions / total, 4) if total else 0.0,
            fingerprint=fingerprint,
            placement_cycles=place_cycles,
            penalty_cycles=round(terms.branch_penalty + terms.miss_penalty, 4),
        ))

    best = min(point.cycles for point in points)
    saturation = next(
        point.width for point in points
        if point.cycles <= best * (1.0 + saturation_tolerance))
    _STATS["sweeps"] += 1
    _STATS["widths"] += len(ladder)
    return SweepOutcome(
        machine=base.name,
        widths=ladder,
        points=tuple(points),
        saturation_width=saturation,
        instructions=instructions,
        shared_translations=symbolic.shared_translations,
    )
