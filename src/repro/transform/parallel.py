"""Parallel evaluation of search candidates over a worker pool.

The cost model is pure Python, so evaluating one candidate at a time
serializes the search on the GIL.  :class:`SearchPool` ships each A*
expansion round's fresh candidates to a ``ProcessPoolExecutor`` in
chunks; predictions are pure functions of (program, machine), so the
results are bit-identical to inline evaluation and only the wall clock
changes.

Worker processes keep a bounded LRU of
:class:`~repro.transform.incremental.IncrementalPredictor` instances
(:func:`shared_predictor` -- the same pool the service engine's predict
path uses), so successive rounds on the same root program reuse the
paper's section 3.3.1 affected-region cache instead of re-aggregating
unchanged regions from scratch.

Degradation mirrors the service engine: processes -> threads (pickling
or pool failures) -> inline, never an error.
"""

from __future__ import annotations

import pickle
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from ..ir.digest import stmts_digest
from ..ir.nodes import Program
from ..ir.symtab import SymbolTable
from ..machine.machine import Machine
from ..obs.caches import BoundedCache
from ..symbolic.expr import PerfExpr
from .incremental import IncrementalPredictor

__all__ = ["SearchPool", "shared_predictor", "evaluate_chunk"]


#: Per-process predictor pool bound.  One entry per (root program,
#: machine, flags) combination a worker has served.
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
    table, and the back-end flags.  Both the service engine's predict
    path and the search pool's round evaluation route through this LRU,
    so a worker that has predicted a program once keeps its incremental
    cache warm for every later probe of that program's variants.
    """
    predictor = _predictors.get(key)
    if predictor is not None:
        return predictor
    from ..aggregate.aggregator import CostAggregator
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


def evaluate_chunk(
    root: Program,
    root_key: tuple,
    machine: Machine,
    programs: Sequence[Program],
) -> list[PerfExpr]:
    """Predict a chunk of candidate programs (the pool's unit of work).

    The predictor is keyed by the *root* program: every candidate is a
    transformed variant sharing the root's declarations and symbol
    table, exactly as the serial search evaluates them.
    """
    predictor = shared_predictor(root_key, machine, root)
    return [predictor.predict(program) for program in programs]


def _chunked(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous runs."""
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out, pos = [], 0
    for i in range(chunks):
        take = size + (1 if i < extra else 0)
        out.append(items[pos:pos + take])
        pos += take
    return out


class SearchPool:
    """Chunked, pooled evaluation of one search's candidate programs.

    ``pool`` may be an external executor (the service engine lends its
    own); the pool is then *borrowed* -- :meth:`close` will not shut it
    down -- and ``workers`` bounds how many chunks one ``evaluate``
    call may occupy at once, which is how the engine caps a heavy
    restructure's worker occupancy.
    """

    def __init__(
        self,
        root: Program,
        machine: Machine,
        workers: int,
        executor: str = "auto",
        pool: Executor | None = None,
        min_chunk: int = 4,
    ):
        if executor not in ("auto", "process", "thread", "sync"):
            raise ValueError(f"unknown executor policy {executor!r}")
        self.root = root
        self.machine = machine
        self.workers = max(1, workers)
        self.min_chunk = max(1, min_chunk)
        self.root_key = ("search", stmts_digest(root.body),
                         machine.fingerprint())
        self._policy = executor
        self._pool = pool
        self._borrowed = pool is not None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._pool is not None or self.workers <= 1 or self._policy == "sync":
            return
        if self._policy in ("auto", "process"):
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                return
            except (OSError, ValueError):
                if self._policy == "process":
                    raise
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        if self._pool is not None and not self._borrowed:
            self._pool.shutdown(wait=True)
        self._pool = None

    def __enter__(self) -> "SearchPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation -----------------------------------------------------
    def _inline(self, programs: list[Program]) -> list[PerfExpr]:
        return evaluate_chunk(self.root, self.root_key, self.machine, programs)

    def evaluate(self, programs: Sequence[Program]) -> list[PerfExpr]:
        """Costs of ``programs``, in order; parallel when it can be.

        Structurally identical candidates (commuting transformation
        orders reconverge on the same program) are predicted once --
        the batch is deduped on ``stmts_digest`` before chunking and
        the shared cost fanned back out to every duplicate slot.
        """
        programs = list(programs)
        if not programs:
            return []
        digests = [stmts_digest(program.body) for program in programs]
        slot_of: dict[str, int] = {}
        unique: list[Program] = []
        for digest, program in zip(digests, programs):
            if digest not in slot_of:
                slot_of[digest] = len(unique)
                unique.append(program)
        costs = self._evaluate_unique(unique)
        if len(unique) == len(programs):
            return costs
        return [costs[slot_of[digest]] for digest in digests]

    def _evaluate_unique(self, programs: list[Program]) -> list[PerfExpr]:
        if self.workers <= 1:
            return self._inline(programs)
        self._ensure_pool()
        if self._pool is None:
            return self._inline(programs)
        chunks = _chunked(
            programs,
            min(self.workers, max(1, len(programs) // self.min_chunk)),
        )
        try:
            futures = [
                self._pool.submit(
                    evaluate_chunk, self.root, self.root_key,
                    self.machine, chunk,
                )
                for chunk in chunks
            ]
            out: list[PerfExpr] = []
            for future in futures:
                out.extend(future.result())
            return out
        except (BrokenProcessPool, OSError, pickle.PicklingError,
                TypeError, AttributeError):
            # A worker died, or something in the closure refused to
            # pickle: give up on the pool for this search and continue
            # inline -- same results, just serial.
            self.close()
            self.workers = 1
            return self._inline(programs)
