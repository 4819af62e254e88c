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

Every name below is imported on first use (PEP 562): a backend never
loads the client, the router or ``asyncio``, and the router never
loads the engine unless every backend is down.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".cache": ("CacheStats", "Eviction", "ResultCache", "endpoint_of"),
    ".client": ("AsyncReproClient", "BadRequestError", "RemoteError",
                "ReproClient", "ReproClientError", "ServerError",
                "TransportError"),
    ".engine": ("PredictionEngine", "ServiceError"),
    ".jobs": ("JobManager", "TERMINAL_STATUSES"),
    ".jobstore": ("CHECKPOINT_VERSION", "JOBS_PREFIX", "JobStore",
                  "job_affinity_key", "parse_job_path", "valid_job_id"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".protocol": ("CompareRequest", "CompareResponse", "ErrorResponse",
                  "JobStatusResponse", "KernelRow", "KernelsRequest",
                  "KernelsResponse", "PredictRequest", "PredictResponse",
                  "ProtocolError", "RestructureJobRequest",
                  "RestructureRequest", "RestructureResponse",
                  "SweepPointRow", "SweepRequest", "SweepResponse",
                  "error_envelope", "request_from_dict",
                  "response_from_dict", "response_to_dict"),
    ".router": ("ShardRouter", "make_router", "run_router"),
    ".server": ("PredictionServer", "make_server", "run_server"),
    ".shard": ("HashRing",),
})
