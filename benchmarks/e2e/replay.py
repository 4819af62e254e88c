"""In-process replay of a workload's stream, optionally traced from outside.

The replay feeds the workload's setup batches and then its first
``count`` requests through a fresh ``PredictionEngine(workers=0,
cache_size=256)`` -- the served configuration -- bracketed by the same
JSON decode and encode the server does.  Every replay runs in a fresh
interpreter (see :func:`measure`), so untraced and traced replays all
start from cold process-wide caches.

The traced replay records its spans from this file: it wraps the public
functions each layer exposes, at the names the engine and the cost
model call them through, for the duration of the replay.  A span is
``(name, start, end, parent, request)``; a layer's self time is its
duration minus the time its child spans cover.  Where a wrapped name no
longer exists the layer is simply not traced, and the untraced share
shows up in ``layers.unexplained_pct``.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

__all__ = ["LAYER_SPANS", "measure"]

#: Longest one replay may take before the benchmark gives up on it.
_REPLAY_SECONDS = 120

#: Span names whose self time is reported, in report order.  ``request``
#: is the root; its self time is engine glue no layer span covers.
LAYER_SPANS = (
    "protocol.decode", "ir.parse", "ir.digest", "cache.probe",
    "predictor.acquire", "symbolic.evaluate", "sweep.program",
    "aggregate.predict", "translate.blocks", "cost.place",
    "search.request", "protocol.encode",
)


class SpanRecorder:
    """In-memory spans for one single-threaded replay."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, parent, 0.0, time.perf_counter()])

    def exit(self) -> None:
        end = time.perf_counter()
        index, name, parent, covered, start = self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, parent, self.request)

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result
        return traced

    def chrome_events(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "args": {"request": request, "parent": parent}}
                for name, start, end, parent, request in self.spans]


def _targets():
    """(owner, attribute, span name, optional (counter, fn of result))."""
    import repro.cost.estimator as estimator
    import repro.service.cache as cache
    import repro.service.engine as engine
    import repro.sweep as sweep
    import repro.transform as transform
    from repro.symbolic.expr import PerfExpr
    from repro.transform.incremental import IncrementalPredictor
    from repro.translate.translator import Translator

    one = ("cost.place_calls", lambda _: 1)
    return [
        (engine, "request_from_dict", "protocol.decode", None),
        (engine, "parse_program", "ir.parse", None),
        (engine, "program_digest", "ir.digest", None),
        (cache.ResultCache, "get", "cache.probe", None),
        (cache.ResultCache, "put", "cache.probe", None),
        (engine, "shared_predictor", "predictor.acquire", None),
        (PerfExpr, "evaluate", "symbolic.evaluate", None),
        (sweep, "sweep_program", "sweep.program", None),
        (IncrementalPredictor, "predict", "aggregate.predict", None),
        (Translator, "translate_block", "translate.blocks",
         ("translate.ops", lambda info: len(info.stream))),
        (estimator, "place_stream", "cost.place", one),
        (sweep, "place_stream", "cost.place", one),
        (transform, "astar_search", "search.request",
         ("search.nodes_expanded", lambda result: result.nodes_expanded)),
        (engine, "response_to_dict", "protocol.encode", None),
    ]


@contextlib.contextmanager
def _instrumented(recorder: SpanRecorder):
    saved = []
    try:
        for owner, attribute, name, count in _targets():
            original = (owner.__dict__.get(attribute) if isinstance(owner, type)
                        else getattr(owner, attribute, None))
            if original is None:
                continue
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, count))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _replay(workload_name: str, seed: int, count: int, traced: bool,
            want_events: bool) -> dict:
    from repro.service import PredictionEngine

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    requests = [workload.request(seed, k) for k in range(count)]
    bodies = [(kind, json.dumps(payload).encode("utf-8"))
              for kind, payload in requests]
    recorder = SpanRecorder()
    seconds: list[float] = []
    errors = 0
    with PredictionEngine(workers=0, cache_size=256) as engine:
        for batch in workload.warm(seed):
            engine.handle_batch(batch)
        with _instrumented(recorder) if traced else contextlib.nullcontext():
            for index, (kind, body) in enumerate(bodies):
                recorder.request = index
                started = time.perf_counter()
                if traced:
                    with recorder.span("request"):
                        with recorder.span("protocol.decode"):
                            payload = json.loads(body)
                        result = engine.handle(kind, payload)
                        with recorder.span("protocol.encode"):
                            json.dumps(result, sort_keys=True)
                else:
                    result = engine.handle(kind, json.loads(body))
                    json.dumps(result, sort_keys=True)
                seconds.append(time.perf_counter() - started)
                errors += "error" in result
    return {
        "errors": errors,
        "mean_us": sum(seconds) / count * 1e6,
        "self_us": {name: total / count * 1e6
                    for name, total in recorder.self_seconds.items()},
        "counts": {name: total / count
                   for name, total in recorder.counts.items()},
        "events": recorder.chrome_events() if want_events else None,
    }


def _fresh_replay(*args) -> dict:
    """One replay in a fresh interpreter (cold process caches).

    A plain child process, run to completion and reaped here, rather
    than a ``multiprocessing`` pool, whose resource tracker would
    outlive the benchmark.
    """
    from live import die_with_parent

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps({"path": sys.path, "args": args}),
        stdout=subprocess.PIPE, text=True, timeout=_REPLAY_SECONDS,
        check=True, preexec_fn=die_with_parent)
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload_name: str, seed: int, count: int, *,
            want_events: bool = False) -> dict:
    """An untraced replay, then a traced one.

    Returns both mean request times (``plain_us``, ``traced_us``), the
    traced replay's mean per-request self time of every span name and
    its per-request counts, the error count of both, and (optionally)
    the traced replay's spans as Chrome-trace events.
    """
    plain = _fresh_replay(workload_name, seed, count, False, False)
    traced = _fresh_replay(workload_name, seed, count, True, want_events)
    return {
        "plain_us": plain["mean_us"],
        "traced_us": traced["mean_us"],
        "self_us": traced["self_us"],
        "counts": traced["counts"],
        "errors": plain["errors"] + traced["errors"],
        "events": traced["events"],
    }


if __name__ == "__main__":
    # The child side of _fresh_replay: the parent's import path and the
    # replay's arguments arrive on stdin, the result leaves as the last
    # line of stdout.
    job = json.load(sys.stdin)
    sys.path[:] = job["path"]
    print(json.dumps(_replay(*job["args"])))
