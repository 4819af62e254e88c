"""Program restructuring transformations and performance-guided search
(paper sections 3.2-3.3)."""

from .base import (
    Path,
    TransformSite,
    Transformation,
    loop_paths,
    replace_at,
    stmt_at,
)
from .fuse import Distribute, Fuse, distribute_loop, fuse_loops
from .incremental import CacheStats, IncrementalPredictor, shared_predictor
from .interchange import Interchange, interchange_pair
from .reorder import ReorderStatements
from .search import (
    RoundProgress,
    SearchCheckpoint,
    SearchResult,
    SearchStep,
    TranspositionTable,
    astar_search,
    exhaustive_search,
)
from .tile import StripMine, Tile2D, strip_mine, tile_nest_2d
from .unroll import Unroll, unroll_loop
from .unroll_jam import UnrollAndJam, unroll_and_jam

__all__ = [
    "CacheStats", "Distribute", "Fuse", "IncrementalPredictor",
    "Interchange", "Path", "ReorderStatements", "RoundProgress",
    "SearchCheckpoint",
    "SearchResult", "SearchStep", "StripMine", "Tile2D", "TransformSite",
    "Transformation", "TranspositionTable",
    "astar_search", "distribute_loop", "exhaustive_search", "fuse_loops",
    "interchange_pair", "loop_paths", "replace_at", "shared_predictor",
    "stmt_at", "strip_mine", "tile_nest_2d", "unroll_loop",
    "UnrollAndJam", "unroll_and_jam",
]
