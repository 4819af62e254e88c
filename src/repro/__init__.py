"""repro: Precise Compile-Time Performance Prediction for Superscalar-Based Computers.

A full reproduction of Ko-Yang Wang's PLDI 1994 performance-prediction
framework: a Tetris-style superscalar cost model with coverable and
noncoverable costs, two-level instruction translation that imitates the
back-end, symbolic cost aggregation over loops and conditionals,
symbolic comparison with run-time test generation and sensitivity
analysis, and a performance-guided A* program restructurer -- plus the
substrates (a mini-Fortran front-end, dependence analysis, a reference
scheduler standing in for IBM xlf, cache/TLB and message-passing cost
models) needed to run the paper's evaluation end to end.

Quick start::

    import repro

    program = repro.parse_program('''
    program saxpy
      integer n, i
      real x(n), y(n), alpha
      do i = 1, n
        y(i) = y(i) + alpha * x(i)
      end do
    end
    ''')
    cost = repro.predict(program, machine="power")
    print(cost)                      # e.g. 3*n + 8   (cycles, symbolic)
    print(cost.evaluate({"n": 100})) # exact rational cycle count

Every public name is imported on first use (PEP 562), so importing
``repro`` -- which every ``repro.*`` import does first -- loads only
the IR, machine, translation and symbolic layers that :func:`predict`'s
default back end and :func:`compare` need.  A ``repro serve`` or
``repro route`` process then carries only the subsystems it serves.
"""

import sys

# Bound eagerly: ``compare`` is also a subpackage name, which the import
# system would bind here on that subpackage's first import.  The rest
# is what ``predict``'s signature names; loading the translation layer
# already loads their modules.
from .compare import compare
from .ir.nodes import Program
from .machine.machine import Machine
from .symbolic.expr import PerfExpr
from .translate.backend_opts import AGGRESSIVE_BACKEND, BackendFlags

__version__ = "1.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__``/``__dir__`` and ``__all__`` for a package
    whose public names are imported from ``exports`` on first use."""
    origins = {name: package + module for module, names in exports.items()
               for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in origins:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, shows in -X importtime.
        value = getattr(__import__(origins[name], fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origins})

    return __getattr__, __dir__, sorted(origins)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".aggregate": ("CostAggregator", "LibraryCostTable", "aggregate_program"),
    ".backend": ("simulate", "simulate_loop"),
    ".baselines": ("GuessPolicy", "OpCountEstimator", "guess_all",
                   "guessed_comparison"),
    ".comm": ("CommunicationCostModel", "ethernet_cluster", "sp1_network"),
    ".compare": ("ComparisonResult", "Verdict", "build_guard", "compare",
                 "rank_variables", "region_report", "winner_regions",
                 "worth_testing"),
    ".cost": ("BlockCost", "CostBlock", "StraightLineEstimator",
              "place_stream"),
    ".ir": ("Program", "SymbolTable", "parse_expression", "parse_fragment",
            "parse_program", "print_program", "program_digest"),
    ".machine": ("Machine", "get_machine", "machine_names",
                 "register_machine"),
    ".memory": ("MemoryCostModel",),
    ".service": ("CompareRequest", "KernelsRequest", "PredictRequest",
                 "PredictionEngine", "PredictionServer", "RestructureRequest",
                 "ServiceError", "make_server"),
    ".symbolic": ("Interval", "PerfExpr", "Poly", "Sign", "UnknownKind"),
    ".transform": ("Distribute", "Fuse", "IncrementalPredictor",
                   "Interchange", "ReorderStatements", "StripMine", "Tile2D",
                   "Unroll", "UnrollAndJam", "astar_search",
                   "exhaustive_search"),
    ".translate": ("AGGRESSIVE_BACKEND", "BackendFlags", "NAIVE_BACKEND",
                   "Translator"),
})
__all__.append("predict")


def predict(
    program: Program,
    machine: str | Machine = "power",
    flags: BackendFlags = AGGRESSIVE_BACKEND,
    include_memory: bool = False,
    focus_span: int | None = None,
) -> PerfExpr:
    """Predict the symbolic cycle cost of a program (the one-call API).

    ``machine`` is a registered machine name or a :class:`Machine`;
    ``include_memory`` adds the cache/TLB cost terms (Figure 7 excludes
    them, so the default matches the paper).
    """
    from .aggregate import aggregate_program
    from .machine import get_machine
    from .memory import MemoryCostModel

    target = get_machine(machine) if isinstance(machine, str) else machine
    kwargs = {}
    if focus_span is not None:
        kwargs["focus_span"] = focus_span
    if include_memory:
        kwargs["memory_model"] = MemoryCostModel(target)
        kwargs["include_memory"] = True
    return aggregate_program(program, target, flags=flags, **kwargs)
