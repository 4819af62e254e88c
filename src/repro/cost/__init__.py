"""The superscalar straight-line cost model (paper section 2.1).

Tetris-style placement of atomic operations into functional-unit bins,
with coverable/noncoverable costs, the signed-block slot data
structure, cost-block shapes, and inter-block overlap estimation.
"""

from .bins import BinSet, Placement
from .columnar import CompiledStream, StreamSummary, compile_stream
from .costblock import CostBlock
from .estimator import BlockCost, StraightLineEstimator
from .focus import DEFAULT_SPAN, EXHAUSTIVE_SPAN, FAST_SPAN, recommended_span
from .overlap import combined_cycles, max_overlap, steady_state_cycles
from .placement import (
    DEFAULT_FOCUS_SPAN,
    PLACEMENT_CACHE_LIMIT,
    PlacedBlock,
    PlacedOp,
    place_stream,
    placement_cache_stats,
    placement_kernel,
    reset_placement_cache,
    set_placement_kernel,
    stream_digest,
)
from .slots import SlotArray

__all__ = [
    "BinSet", "BlockCost",
    "CompiledStream", "CostBlock", "DEFAULT_FOCUS_SPAN", "DEFAULT_SPAN",
    "EXHAUSTIVE_SPAN", "FAST_SPAN", "PLACEMENT_CACHE_LIMIT",
    "PlacedBlock", "PlacedOp", "Placement", "SlotArray",
    "StraightLineEstimator", "StreamSummary",
    "combined_cycles", "compile_stream",
    "max_overlap", "place_stream",
    "placement_cache_stats", "placement_kernel", "recommended_span",
    "reset_placement_cache",
    "set_placement_kernel", "steady_state_cycles", "stream_digest",
]
