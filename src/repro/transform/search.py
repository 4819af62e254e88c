"""Performance-guided transformation search (paper section 3.2).

"Based on the symbolic performance comparison, the compiler can utilize
graph search algorithms, such as the A* algorithm, to choose program
transformation sequence systematically."

States are programs; edges are (transformation, site) applications.
The evaluation function is the predicted cost of the state, obtained
from an :class:`~repro.transform.incremental.IncrementalPredictor`
(so probing many variants stays cheap), evaluated either

* at a concrete workload point (``workload={"n": 100}``), or
* by symbolic comparison against the incumbent (``workload=None``):
  a successor replaces the incumbent only when the comparator proves it
  cheaper over the whole domain, or recommends it by integral mass.

``astar_search`` expands best-first on predicted cost; ``exhaustive``
enumerates every sequence up to a depth, as the oracle the E-SEARCH
bench compares node counts against.

Scaling machinery:

* Visited states are keyed by :func:`~repro.ir.digest.stmts_digest`
  -- an O(changed spine) structural hash -- instead of the O(program)
  ``print_program`` rendering the first version used, and predicted
  costs live in a :class:`TranspositionTable` that can be shared
  across searches (an exhaustive oracle run after an A* run re-predicts
  nothing).
* Expansion proceeds in *rounds*: each round pops up to ``beam_width``
  nodes, generates and digest-dedups their successors in a fixed
  order, then predicts the fresh candidates in that order;
  ``beam_width=1`` is exactly the classic serial A* expansion order.
  The round that spends the node budget generates nothing.

Programs whose branches are not nearly equal get fresh probability
variables (``pt_N``) numbered in evaluation order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from ..compare.comparator import Verdict, compare
from ..ir.digest import stmts_digest
from ..ir.nodes import Program
from ..machine.compiled import compile_ops
from ..obs import trace_span
from ..symbolic.expr import PerfExpr
from ..symbolic.intervals import Interval
from .base import Transformation
from .incremental import IncrementalPredictor

__all__ = [
    "RoundProgress",
    "SearchCheckpoint",
    "SearchResult",
    "SearchStep",
    "TranspositionTable",
    "astar_search",
    "exhaustive_search",
]


@dataclass(frozen=True)
class SearchStep:
    """One applied transformation in the winning sequence."""

    transformation: str
    description: str


@dataclass
class SearchResult:
    """Outcome of a transformation search."""

    program: Program
    cost: PerfExpr
    steps: tuple[SearchStep, ...]
    nodes_expanded: int
    nodes_generated: int
    rounds: int = 0
    completed: bool = True   # False when an ``on_round`` callback stopped it

    @property
    def sequence(self) -> str:
        return " ; ".join(s.description for s in self.steps) or "(original)"


@dataclass
class SearchCheckpoint:
    """The complete search state at a round boundary.

    Everything the round loop reads lives here -- the frontier heap,
    the digest dedup set, the incumbent, the tie-break order counter,
    and the transposition memo -- so a search resumed from a checkpoint
    replays the remaining rounds *bit-identically* to the uninterrupted
    run: same pops, same pushes, same tie-breaks, same result.  All
    members are picklable, which is what lets the service layer persist
    one per round and hand a killed shard's job to its ring successor.
    Resume only under the parameters it was taken with: the round that
    spends ``max_nodes`` pushes no successors, so its checkpoint is
    final for that budget and no other.
    """

    rounds: int
    expanded: int
    generated: int
    next_order: int
    frontier: list
    seen: set[str]
    best_program: Program
    best_cost: PerfExpr
    best_steps: tuple[SearchStep, ...]
    best_scalar: Fraction | None
    table_costs: dict[str, PerfExpr] = field(default_factory=dict)


@dataclass
class RoundProgress:
    """What one expansion round produced (passed to ``on_round``).

    ``checkpoint`` is the state *after* this round; resuming from it
    re-enters the loop exactly where the callback saw it.  The callback
    returns ``False`` to stop the search cooperatively -- the returned
    :class:`SearchResult` then carries ``completed=False`` and the
    best-so-far incumbent.
    """

    round: int
    expanded: int
    generated: int
    frontier_size: int
    best_program: Program
    best_cost: PerfExpr
    best_steps: tuple[SearchStep, ...]
    checkpoint: SearchCheckpoint

    @property
    def best_sequence(self) -> str:
        return (" ; ".join(s.description for s in self.best_steps)
                or "(original)")


@dataclass
class TranspositionTable:
    """Digest-keyed memo of predicted costs, shared across searches.

    Predictions are pure functions of the program (for a fixed
    predictor), so entries never go stale while the predictor lives.
    Passing one table to consecutive searches -- an A* pass and its
    exhaustive oracle, or the same search re-run at a deeper
    ``max_depth`` -- answers every revisited state from the memo.
    """

    costs: dict[str, PerfExpr] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, digest: str) -> PerfExpr | None:
        cost = self.costs.get(digest)
        if cost is None:
            self.misses += 1
        else:
            self.hits += 1
        return cost

    def store(self, digest: str, cost: PerfExpr) -> None:
        self.costs[digest] = cost

    def __len__(self) -> int:
        return len(self.costs)


def _scalar_cost(cost: PerfExpr, workload: Mapping[str, int]) -> Fraction:
    bindings = dict(workload)
    for name in cost.poly.variables():
        if name not in bindings:
            # Unknowns the workload doesn't pin: midpoint of bounds or 1.
            interval = cost.effective_bounds()[name]
            try:
                bindings[name] = interval.midpoint()
            except ValueError:
                bindings[name] = Fraction(1)
    return cost.poly.evaluate(bindings)


def _root_cost(
    program: Program,
    digest: str,
    predictor: IncrementalPredictor,
    table: TranspositionTable,
) -> PerfExpr:
    cost = table.lookup(digest)
    if cost is None:
        cost = predictor.predict(program)
        table.store(digest, cost)
    return cost


def astar_search(
    program: Program,
    transformations: Sequence[Transformation],
    predictor: IncrementalPredictor,
    workload: Mapping[str, int] | None = None,
    max_depth: int = 3,
    max_nodes: int = 200,
    domain: Mapping[str, "Interval"] | None = None,
    *,
    beam_width: int = 1,
    table: TranspositionTable | None = None,
    on_round: Callable[[RoundProgress], Any] | None = None,
    resume_from: SearchCheckpoint | None = None,
) -> SearchResult:
    """Best-first search over transformation sequences.

    The priority is the predicted cost of the state (an admissible
    estimate of the best reachable final cost would require knowing the
    future; using the state's own cost makes this the standard
    cost-guided best-first variant of A* with zero path cost, which is
    what a compiler actually wants: the cheapest *program*, not the
    shortest sequence).

    ``beam_width`` nodes are popped per expansion round and their
    fresh successors predicted together, in a fixed order.  The round
    whose pops spend ``max_nodes`` is the last, so it generates and
    predicts no successors: none could be popped, and the incumbent
    changes only on a pop.

    Every candidate evaluated below bottoms out in the active placement
    kernel; the machine's op costs are interned once here so no round
    pays the first-call compilation.  Each round's successor batch is
    already digest-deduped before evaluation (the ``seen``
    transposition guard), so commuting transformation orders cost one
    prediction, not many.

    ``on_round`` fires at every round boundary with a
    :class:`RoundProgress` (best-so-far incumbent plus a resumable
    :class:`SearchCheckpoint`); returning ``False`` stops the search
    cooperatively.  ``resume_from`` re-enters the loop from a prior
    checkpoint taken under the same parameters -- because the
    checkpoint captures the full loop state, the resumed search is
    bit-identical to never having stopped.
    """
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    compile_ops(predictor.aggregator.machine)
    table = table if table is not None else TranspositionTable()
    with trace_span("transform.search") as span:
        if resume_from is not None:
            # Re-enter the loop with the checkpointed state verbatim:
            # same heap (copied -- the checkpoint may be reused), same
            # dedup set, same incumbent, same tie-break counter.
            table.costs.update(resume_from.table_costs)
            frontier = list(resume_from.frontier)
            seen = set(resume_from.seen)
            next_order = resume_from.next_order
            best_prog = resume_from.best_program
            best_cost = resume_from.best_cost
            best_steps = resume_from.best_steps
            best_scalar = resume_from.best_scalar
            expanded = resume_from.expanded
            generated = resume_from.generated
            rounds = resume_from.rounds
        else:
            frontier = []
            seen = set()
            next_order = 0
            expanded = 0
            generated = 0
            rounds = 0

        def push(prog: Program, cost: PerfExpr,
                 steps: tuple[SearchStep, ...], depth: int) -> None:
            nonlocal next_order
            priority = (
                float(_scalar_cost(cost, workload)) if workload is not None else 0.0
            )
            heapq.heappush(frontier, (priority, next_order, prog, cost, steps, depth))
            next_order += 1

        if resume_from is None:
            root_digest = stmts_digest(program.body)
            start_cost = _root_cost(program, root_digest, predictor, table)
            push(program, start_cost, (), 0)
            best_prog, best_cost, best_steps = program, start_cost, ()
            best_scalar = (
                _scalar_cost(start_cost, workload) if workload is not None
                else None
            )
            seen.add(root_digest)
            generated = 1

        stopped = False
        while frontier and expanded < max_nodes:
            rounds += 1
            # Pop this round's beam, updating the incumbent in pop order.
            beam: list[tuple[Program, tuple[SearchStep, ...], int]] = []
            while frontier and len(beam) < beam_width and expanded < max_nodes:
                _, _, prog, cost, steps, depth = heapq.heappop(frontier)
                expanded += 1
                if workload is not None:
                    scalar = _scalar_cost(cost, workload)
                    if scalar < best_scalar:
                        best_prog, best_cost, best_steps = prog, cost, steps
                        best_scalar = scalar
                elif _better(cost, best_cost, workload, domain):
                    best_prog, best_cost, best_steps = prog, cost, steps
                if depth < max_depth:
                    beam.append((prog, steps, depth))
            if expanded >= max_nodes:
                beam = []   # the budget is spent: no successor can be popped

            # Generate and digest-dedup successors in a fixed order.
            fresh: list[tuple[Program, str, tuple[SearchStep, ...], int]] = []
            known: list[tuple[Program, PerfExpr, tuple[SearchStep, ...], int]] = []
            for prog, steps, depth in beam:
                for transformation in transformations:
                    for site in transformation.sites(prog):
                        candidate = transformation.apply(prog, site)
                        digest = stmts_digest(candidate.body)
                        if digest in seen:
                            continue
                        seen.add(digest)
                        step = steps + (
                            SearchStep(transformation.name, site.description),
                        )
                        cost = table.lookup(digest)
                        if cost is None:
                            fresh.append((candidate, digest, step, depth + 1))
                        else:
                            known.append((candidate, cost, step, depth + 1))

            costs = [predictor.predict(candidate)
                     for candidate, _, _, _ in fresh]
            for (candidate, digest, step, depth), cost in zip(fresh, costs):
                table.store(digest, cost)
            for candidate, cost, step, depth in known:
                generated += 1
                push(candidate, cost, step, depth)
            for (candidate, digest, step, depth), cost in zip(fresh, costs):
                generated += 1
                push(candidate, cost, step, depth)

            if on_round is not None:
                checkpoint = SearchCheckpoint(
                    rounds=rounds, expanded=expanded, generated=generated,
                    next_order=next_order, frontier=list(frontier),
                    seen=set(seen), best_program=best_prog,
                    best_cost=best_cost, best_steps=best_steps,
                    best_scalar=best_scalar, table_costs=dict(table.costs),
                )
                verdict = on_round(RoundProgress(
                    round=rounds, expanded=expanded, generated=generated,
                    frontier_size=len(frontier), best_program=best_prog,
                    best_cost=best_cost, best_steps=best_steps,
                    checkpoint=checkpoint,
                ))
                if verdict is False:
                    stopped = True
                    break

        if span.recording:
            span.set(nodes_expanded=expanded, nodes_generated=generated,
                     rounds=rounds, beam_width=beam_width,
                     max_depth=max_depth, best_cost=str(best_cost),
                     best_sequence=" ; ".join(s.description for s in best_steps)
                     or "(original)")
    return SearchResult(best_prog, best_cost, best_steps, expanded, generated,
                        rounds, completed=not stopped)


def _better(
    candidate: PerfExpr,
    incumbent: PerfExpr,
    workload: Mapping[str, int] | None,
    domain: Mapping[str, "Interval"] | None = None,
) -> bool:
    if workload is not None:
        return _scalar_cost(candidate, workload) < _scalar_cost(incumbent, workload)
    result = compare(candidate, incumbent, domain=dict(domain) if domain else None)
    if result.verdict is Verdict.FIRST_ALWAYS:
        return True
    if result.verdict is Verdict.DEPENDS:
        return result.recommended("integral") is Verdict.FIRST_ALWAYS
    return False


def exhaustive_search(
    program: Program,
    transformations: Sequence[Transformation],
    predictor: IncrementalPredictor,
    workload: Mapping[str, int],
    max_depth: int = 3,
    max_nodes: int = 100_000,
    *,
    table: TranspositionTable | None = None,
) -> SearchResult:
    """Enumerate every sequence to ``max_depth`` (the oracle baseline).

    Costs are predicted once, at generation time, and carried through
    the work list -- the popped node is never re-predicted.  A shared
    ``table`` (e.g. from a preceding :func:`astar_search` on the same
    predictor) answers revisited states without any prediction at all.
    The pop that spends ``max_nodes`` is not expanded.
    """
    table = table if table is not None else TranspositionTable()
    root_digest = stmts_digest(program.body)
    start_cost = _root_cost(program, root_digest, predictor, table)
    best_prog, best_cost, best_steps = program, start_cost, ()
    best_scalar = _scalar_cost(start_cost, workload)
    seen: set[str] = {root_digest}
    queue: list[tuple[Program, PerfExpr, tuple[SearchStep, ...], int]] = [
        (program, start_cost, (), 0)
    ]
    expanded = 0
    generated = 1
    while queue and expanded < max_nodes:
        prog, cost, steps, depth = queue.pop()
        expanded += 1
        scalar = _scalar_cost(cost, workload)
        if scalar < best_scalar:
            best_prog, best_cost, best_steps = prog, cost, steps
            best_scalar = scalar
        if depth >= max_depth or expanded >= max_nodes:
            continue
        for transformation in transformations:
            for site in transformation.sites(prog):
                candidate = transformation.apply(prog, site)
                digest = stmts_digest(candidate.body)
                if digest in seen:
                    continue
                seen.add(digest)
                candidate_cost = table.lookup(digest)
                if candidate_cost is None:
                    candidate_cost = predictor.predict(candidate)
                    table.store(digest, candidate_cost)
                generated += 1
                queue.append(
                    (candidate, candidate_cost,
                     steps + (SearchStep(transformation.name, site.description),),
                     depth + 1)
                )
    return SearchResult(best_prog, best_cost, best_steps, expanded, generated)
