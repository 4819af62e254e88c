"""Incremental update of performance predictions (paper section 3.3.1).

"The performance prediction framework needs to support incremental
update so that cost of maintaining up-to-date performance during the
program optimization process is as small as possible.  To avoid
unnecessary recomputing, each transformation defines an affected region
of performance based on the structure it changes."

The implementation exploits the IR's structural immutability: a
transformation rebuilds only the spine from the changed site to the
root, so every untouched subtree compares equal to its old self.
Caching ``cost_stmts`` by (statements, enclosing indices) therefore
*is* the affected-region rule: exactly the changed region and its
ancestors miss the cache.

:func:`shared_predictor` keeps a bounded, process-wide pool of these
predictors, so the service's predict path and every restructure search
on the same program reuse one warm affected-region cache.
"""

from __future__ import annotations

from typing import Any

from ..aggregate.aggregator import CostAggregator
from ..ir.nodes import Program, Stmt
from ..ir.symtab import SymbolTable
from ..machine.machine import Machine
from ..obs.caches import BoundedCache, CacheStats
from ..symbolic.expr import PerfExpr

__all__ = ["CacheStats", "IncrementalPredictor", "shared_predictor"]


class IncrementalPredictor:
    """A caching wrapper around :class:`CostAggregator`.

    Repeated predictions of transformed variants reuse the costs of
    unchanged regions; ``stats`` reports how much work was avoided.
    """

    def __init__(self, aggregator: CostAggregator):
        self.aggregator = aggregator
        self._cache: dict[tuple[tuple[Stmt, ...], tuple[str, ...]], PerfExpr] = {}
        self.stats = CacheStats()
        self._install()

    def _install(self) -> None:
        """Route the aggregator's recursion through the cache.

        ``cost_stmts`` recurses via ``self.aggregator.cost_stmts`` in
        loop aggregation, so overriding the bound method captures every
        compound region, at every nesting level.
        """
        original_stmts = self.aggregator.cost_stmts
        original_loop = self.aggregator.cost_loop

        def cached_stmts(stmts, enclosing=()):
            key = ("stmts", tuple(stmts), tuple(enclosing))
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.hits += 1
                return hit
            self.stats.misses += 1
            result = original_stmts(stmts, enclosing)
            self._cache[key] = result
            return result

        def cached_loop(stmt, enclosing=()):
            key = ("loop", stmt, tuple(enclosing))
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.hits += 1
                return hit
            self.stats.misses += 1
            result = original_loop(stmt, enclosing)
            self._cache[key] = result
            return result

        self.aggregator.cost_stmts = cached_stmts  # type: ignore[method-assign]
        self.aggregator.cost_loop = cached_loop    # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def predict(self, program: Program) -> PerfExpr:
        """Predicted cost; unchanged subtrees come from the cache."""
        return self.aggregator.cost_stmts(program.body, ())

    def invalidate(self) -> None:
        """Drop the cache (e.g. after machine/flag changes)."""
        self._cache.clear()
        self.stats = CacheStats()


#: Per-process predictor pool bound.  One entry per (program, machine,
#: flags) combination the process has served.
PREDICTOR_LIMIT = 64

_predictors: BoundedCache[tuple, IncrementalPredictor] = \
    BoundedCache("predictor", PREDICTOR_LIMIT)


def shared_predictor(
    key: tuple,
    machine: Machine,
    program: Program,
    backend: str = "aggressive",
    include_memory: bool = False,
) -> IncrementalPredictor:
    """The process-wide predictor for ``key``, built on first use.

    ``key`` must identify everything that shapes predictions: the
    program whose symbol table seeds the aggregator, the machine's cost
    table, and the back-end flags.  The service engine's predict,
    compare and restructure paths all route through this LRU, so a
    process that has predicted a program once keeps its incremental
    cache warm for every later probe of that program's variants.
    """
    predictor = _predictors.get(key)
    if predictor is not None:
        return predictor
    from ..translate.backend_opts import AGGRESSIVE_BACKEND, NAIVE_BACKEND

    flags = NAIVE_BACKEND if backend == "naive" else AGGRESSIVE_BACKEND
    kwargs: dict[str, Any] = {}
    if include_memory:
        from ..memory.model import MemoryCostModel

        kwargs["memory_model"] = MemoryCostModel(machine)
        kwargs["include_memory"] = True
    predictor = IncrementalPredictor(CostAggregator(
        machine, SymbolTable.from_program(program), flags=flags, **kwargs,
    ))
    _predictors.put(key, predictor)
    return predictor
