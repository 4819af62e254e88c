"""Serving subsystem: batched engine, content-addressed cache, HTTP server.

Turns the one-shot prediction library into long-lived infrastructure:

* :class:`PredictionEngine` -- validates, caches, and executes
  predict / compare / restructure / kernels requests, singly or in
  batches, inline on the calling thread;
* :class:`ResultCache` -- content-addressed LRU keyed by canonical
  program digest, with JSON-lines persistence for instant warm starts;
* :mod:`~repro.service.protocol` -- strict wire dataclasses shared by
  the HTTP server and the CLI ``--json`` flags;
* :class:`PredictionServer` -- a dependency-free ``http.server``
  JSON front end with ``/healthz`` and Prometheus ``/metrics``;
* :class:`ShardRouter` + :class:`~repro.service.shard.HashRing` --
  a consistent-hash front door that partitions the digest keyspace
  over N backend servers with health probes, failover, and local
  degraded mode;
* :class:`ReproClient` / :class:`AsyncReproClient` -- pooled typed
  clients for either a single server or the router;
* :class:`JobManager` + :class:`JobStore` -- async restructure jobs
  with streaming progress events, resumable checkpoints, cooperative
  cancellation, and cross-shard adoption after a shard death.

Quick start::

    from repro.service import PredictionEngine, PredictRequest

    engine = PredictionEngine(cache_size=4096)
    response = engine.predict(PredictRequest(source=saxpy_text))
    print(response.cost)          # "3*n + 8"

Over the wire::

    from repro.service import ReproClient

    with ReproClient("http://127.0.0.1:8080") as client:
        print(client.predict(saxpy_text, bindings={"n": 100}).cycles)
"""

from .cache import CacheStats, Eviction, ResultCache, endpoint_of
from .client import (
    AsyncReproClient,
    BadRequestError,
    RemoteError,
    ReproClient,
    ReproClientError,
    ServerError,
    TransportError,
)
from .engine import PredictionEngine, ServiceError
from .jobs import (
    JOBS_PREFIX,
    JobManager,
    TERMINAL_STATUSES,
    job_affinity_key,
    parse_job_path,
)
from .jobstore import CHECKPOINT_VERSION, JobStore, valid_job_id
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .protocol import (
    CompareRequest,
    CompareResponse,
    ErrorResponse,
    JobStatusResponse,
    KernelRow,
    KernelsRequest,
    KernelsResponse,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    RestructureJobRequest,
    RestructureRequest,
    RestructureResponse,
    SweepPointRow,
    SweepRequest,
    SweepResponse,
    error_envelope,
    request_from_dict,
    response_from_dict,
    response_to_dict,
)
from .router import ShardRouter, make_router, run_router
from .server import PredictionServer, make_server, run_server
from .shard import HashRing

__all__ = [
    "AsyncReproClient", "BadRequestError", "CacheStats",
    "CHECKPOINT_VERSION", "CompareRequest",
    "CompareResponse", "Counter", "ErrorResponse", "Eviction", "Gauge",
    "HashRing", "Histogram", "JOBS_PREFIX", "JobManager", "JobStore",
    "JobStatusResponse", "KernelRow", "KernelsRequest",
    "KernelsResponse", "MetricsRegistry", "PredictRequest",
    "PredictResponse", "PredictionEngine", "PredictionServer",
    "ProtocolError", "RemoteError", "ReproClient", "ReproClientError",
    "RestructureJobRequest", "RestructureRequest", "RestructureResponse",
    "ResultCache", "ServerError", "ServiceError", "ShardRouter",
    "SweepPointRow", "SweepRequest", "SweepResponse",
    "TERMINAL_STATUSES", "TransportError",
    "endpoint_of", "error_envelope",
    "job_affinity_key", "make_router",
    "make_server", "parse_job_path", "request_from_dict",
    "response_from_dict", "response_to_dict", "run_router", "run_server",
    "valid_job_id",
]
