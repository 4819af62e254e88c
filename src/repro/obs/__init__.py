"""Observability: tracing spans, exporters, and structured logging.

Dependency-free (stdlib only) and import-light: nothing here imports
the rest of :mod:`repro`, so every pipeline package can instrument
itself without cycles.  See :mod:`repro.obs.tracer` for the span
model, :mod:`repro.obs.export` for the Chrome ``trace_event`` and
span-tree renderings, :mod:`repro.obs.logs` for JSON logging with
request-id propagation, :mod:`repro.obs.propagation` for the W3C
``traceparent`` context that stitches traces across processes, and
:mod:`repro.obs.caches` for the bounded LRU every memo is built on.

Two modules are deliberately *not* re-exported here:
:mod:`repro.obs.aggregate` (cluster metrics merging) and
:mod:`repro.obs.slo` (objective tracking) depend on
:mod:`repro.service.metrics` and are imported directly by the service
layer, keeping this package import-light for pipeline code.
"""

from .caches import BoundedCache, CacheStats, cache_stats
from .export import chrome_trace, render_tree, write_chrome_trace
from .propagation import (
    TRACEPARENT_HEADER,
    ExemplarRing,
    TraceBuffer,
    TraceContext,
    current_context,
    format_traceparent,
    parse_traceparent,
)
from .logs import (
    JsonFormatter,
    configure_json_logging,
    get_request_id,
    new_request_id,
    set_request_id,
)
from .tracer import (
    NOOP_SPAN,
    PHASE_BUCKETS,
    PHASE_HISTOGRAM,
    PIPELINE_PHASES,
    Span,
    Tracer,
    current_span,
    current_tracer,
    trace_span,
)

__all__ = [
    "Span", "Tracer", "NOOP_SPAN",
    "PIPELINE_PHASES", "PHASE_BUCKETS", "PHASE_HISTOGRAM",
    "trace_span", "current_tracer", "current_span",
    "chrome_trace", "write_chrome_trace", "render_tree",
    "JsonFormatter", "configure_json_logging",
    "new_request_id", "set_request_id", "get_request_id",
    "TRACEPARENT_HEADER", "TraceContext",
    "format_traceparent", "parse_traceparent", "current_context",
    "TraceBuffer", "ExemplarRing",
    "BoundedCache", "CacheStats", "cache_stats",
]
