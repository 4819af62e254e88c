"""The online surrogate: serving, harvesting, and drift-driven retrains.

:class:`Surrogate` is the piece the :class:`~repro.service.engine.
PredictionEngine` holds.  Three jobs:

* **serve** -- answer a ``fidelity=fast|auto`` predict from the
  current model in microseconds, entirely ahead of the result cache
  and the worker pool.  A request is servable when its bindings are
  numeric, the machine has a fitted model, and the program's static
  features are already memoized; anything else *falls through* to the
  exact path (never an error), and ``auto`` additionally refuses
  intervals wider than the request's tolerance;
* **harvest** -- every exact prediction that produced a numeric
  ``cycles`` is enqueued as a labeled sample.  A background thread
  featurizes it (warming the static-feature memo as a side effect),
  appends it to a bounded per-fingerprint reservoir (a recency ring:
  old traffic ages out, which is exactly what drift adaptation
  wants), and tracks observed drift as rolling
  ``|error| / interval half-width`` against the live model;
* **retrain** -- when fresh samples or drift cross their thresholds,
  refit + reconformalize on the reservoir and hot-swap the model
  atomically (a single dict store; readers see old or new, never a
  mix), bumping the version and persisting the JSON artifact next to
  the result cache.

``background=False`` runs harvesting inline on the caller's thread --
deterministic, for tests and benchmarks.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from ..machine.registry import machine_fingerprint
from ..obs.caches import BoundedCache
from ..service.metrics import MetricsRegistry
from .features import (
    FEATURE_VERSION,
    StaticFeatures,
    extract_static,
    feature_vector,
    peek_static,
)
from .model import ConformalModel, fit_conformal, load_artifact, save_artifact

__all__ = ["Surrogate", "SurrogateConfig", "train_from_cache"]

log = logging.getLogger("repro.learn.trainer")

#: Interval-width histogram buckets (relative width, unitless).
WIDTH_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass
class SurrogateConfig:
    """Knobs for the tiered-fidelity surrogate (see README)."""

    coverage: float = 0.9          #: nominal conformal coverage level
    min_samples: int = 40          #: reservoir floor before the first fit
    retrain_every: int = 64        #: fresh samples between periodic refits
    reservoir_size: int = 2048     #: per-fingerprint sample ring bound
    drift_threshold: float = 1.0   #: rolling |err|/half-width that refits
    drift_window: int = 64         #: samples in the rolling drift mean
    default_tolerance: float = 0.1  #: auto tier's relative-width ceiling
    ridge: float = 1e-3            #: ridge regularization strength
    store: str | None = None       #: JSON artifact path (None = memory only)
    background: bool = True        #: harvest on a thread vs inline


class _FpState:
    """Mutable per-fingerprint training state (trainer thread only)."""

    __slots__ = ("samples", "fresh", "drift", "machine")

    def __init__(self, reservoir_size: int, drift_window: int):
        self.samples: deque = deque(maxlen=reservoir_size)
        self.fresh = 0
        self.drift: deque = deque(maxlen=drift_window)
        self.machine = ""


class Surrogate:
    """Learned fast tier: models, reservoirs, and the harvest thread."""

    def __init__(self, config: SurrogateConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.config = config if config is not None else SurrogateConfig()
        #: fingerprint -> live model; replaced wholesale on retrain, so
        #: serving threads read a consistent model without locking.
        self._models: dict[str, ConformalModel] = {}
        if self.config.store:
            self._models = load_artifact(self.config.store)
        self._state: dict[str, _FpState] = {}
        self._queue: deque = deque()
        self._queue_bound = 4096
        self._dropped = 0
        #: (fingerprint, source, backend, include_memory, bindings,
        #: model version) -> (response template, relative width).  A
        #: repeated fast predict costs one memo probe instead of a
        #: featurize + dot product; versioned keys age out via LRU
        #: after a hot swap.
        self._serve_memo: BoundedCache[tuple, tuple[dict, float]] = \
            BoundedCache("surrogate_serve", 4096)
        # plain-int mirrors of the registry counters, for stats()/healthz
        self._n_served = 0
        self._n_fallthrough = 0
        self._n_retrains = 0
        self._n_samples = 0
        self._fall_reasons: dict[str, int] = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._stop = False
        self._thread: threading.Thread | None = None
        self._metrics_bound = False
        self.bind_metrics(metrics if metrics is not None else MetricsRegistry())
        for model in self._models.values():
            if model.machine:
                self._version_gauge.set(model.version, machine=model.machine)
        if self.config.background:
            self._thread = threading.Thread(
                target=self._run, name="surrogate-trainer", daemon=True)
            self._thread.start()

    # -- metrics --------------------------------------------------------
    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """(Re)create the ``repro_surrogate_*`` family in ``registry``.

        The engine calls this so surrogate counters land in the same
        registry ``/metrics`` renders.
        """
        self.metrics = registry
        self._served = registry.counter(
            "repro_surrogate_served_total",
            "Predicts answered by the surrogate fast tier.")
        self._fallthrough = registry.counter(
            "repro_surrogate_fallthrough_total",
            "fast/auto predicts that fell through to exact, by reason.")
        self._retrains = registry.counter(
            "repro_surrogate_retrains_total",
            "Surrogate refits, by trigger.")
        self._harvested = registry.counter(
            "repro_surrogate_samples_total",
            "Labeled samples harvested from exact predictions.")
        self._width_hist = registry.histogram(
            "repro_surrogate_interval_width",
            "Relative conformal interval width of served predictions.",
            buckets=WIDTH_BUCKETS)
        self._version_gauge = registry.gauge(
            "repro_surrogate_model_version",
            "Live surrogate model version, by machine.")
        self._staleness_gauge = registry.gauge(
            "repro_surrogate_model_staleness_seconds",
            "Seconds since the live model was trained, by machine.")
        self._reservoir_gauge = registry.gauge(
            "repro_surrogate_reservoir_samples",
            "Resident reservoir samples, by machine.")
        self._metrics_bound = True

    def export_metrics(self) -> None:
        """Refresh scrape-time gauges (staleness, reservoir depth)."""
        now = time.time()
        for model in list(self._models.values()):
            if model.machine:
                self._staleness_gauge.set(
                    max(now - model.trained_at, 0.0), machine=model.machine)
        with self._lock:
            sizes = {state.machine: len(state.samples)
                     for state in self._state.values() if state.machine}
        for machine, size in sizes.items():
            self._reservoir_gauge.set(size, machine=machine)

    # -- serving (engine batch thread; must stay microsecond-cheap) ----
    def serve(self, request: Any) -> dict[str, Any] | None:
        """A wire response dict, or ``None`` to fall through to exact.

        ``request`` is a validated
        :class:`~repro.service.protocol.PredictRequest` with
        ``fidelity`` of ``fast`` or ``auto``.
        """
        fidelity = request.fidelity
        if not request.bindings:
            return self._miss(fidelity, "no_bindings")
        try:
            fingerprint = machine_fingerprint(request.machine)
        except KeyError:
            return self._miss(fidelity, "unknown_machine")
        model = self._models.get(fingerprint)
        if model is None:
            return self._miss(fidelity, "no_model")
        memo_key = (fingerprint, request.source, request.backend,
                    request.include_memory,
                    tuple(sorted((k, str(v))
                                 for k, v in request.bindings.items())),
                    model.version)
        hit = self._serve_memo.get(memo_key)
        if hit is not None:
            template, rel_width = hit
        else:
            static = peek_static(request.source, request.machine,
                                 request.backend, request.include_memory)
            if static is None:
                return self._miss(fidelity, "cold_features")
            try:
                bindings = {k: Fraction(str(v))
                            for k, v in request.bindings.items()}
                x = feature_vector(static, bindings)
            except (ValueError, ZeroDivisionError):
                return self._miss(fidelity, "unbound")
            if x is None:
                return self._miss(fidelity, "unbound")
            mid, lo, hi = model.predict(x)
            rel_width = (hi - lo) / max(abs(mid), 1.0)
            template = {
                "cost": f"~{mid:.6g}",
                "digest": static.digest,
                "machine": request.machine,
                "backend": request.backend,
                "variables": sorted(static.variables),
                "cycles": str(mid),
                "cached": False,
                "fidelity": "fast",
                "interval": [lo, hi],
                "model_version": model.version,
            }
            self._serve_memo.put(memo_key, (template, rel_width))
        if fidelity == "auto":
            tolerance = request.tolerance
            if tolerance is None:
                tolerance = self.config.default_tolerance
            if rel_width > tolerance:
                return self._miss(fidelity, "wide_interval")
        self._n_served += 1
        self._served.inc(fidelity=fidelity)
        self._width_hist.observe(rel_width, machine=request.machine)
        # shallow copy: callers may attach a trace block to the response
        return dict(template)

    def _miss(self, fidelity: str, reason: str) -> None:
        self._n_fallthrough += 1
        self._fall_reasons[reason] = self._fall_reasons.get(reason, 0) + 1
        self._fallthrough.inc(fidelity=fidelity, reason=reason)
        return None

    # -- harvesting -----------------------------------------------------
    def observe(self, request: Any, cycles: float) -> None:
        """Queue one labeled sample from an exact prediction."""
        item = (request.source, request.machine, request.backend,
                request.include_memory, dict(request.bindings or {}),
                float(cycles))
        if not self.config.background:
            self._ingest(item)
            return
        with self._wake:
            if len(self._queue) >= self._queue_bound:
                self._queue.popleft()
                self._dropped += 1
            self._queue.append(item)
            self._wake.notify()

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait(timeout=1.0)
                if self._stop and not self._queue:
                    return
                item = self._queue.popleft()
            try:
                self._ingest(item)
            except Exception:  # noqa: BLE001 -- a bad sample must not kill the thread
                log.exception("surrogate sample ingestion failed")

    def _ingest(self, item: tuple) -> None:
        source, machine, backend, include_memory, bindings, cycles = item
        try:
            static = extract_static(source, machine, backend, include_memory)
            x = feature_vector(
                static, {k: Fraction(str(v)) for k, v in bindings.items()})
        except Exception:  # noqa: BLE001 -- unfeaturizable programs are skipped
            return
        if x is None:
            return
        fp = static.fingerprint
        state = self._state.get(fp)
        if state is None:
            state = _FpState(self.config.reservoir_size,
                             self.config.drift_window)
            self._state[fp] = state
        state.machine = machine
        state.samples.append((x, cycles))
        state.fresh += 1
        self._n_samples += 1
        self._harvested.inc(machine=machine)
        model = self._models.get(fp)
        if model is not None:
            mid = model.point(x)
            half = max(model.quantile, 1e-9)
            state.drift.append(abs(cycles - mid) / half)
            if (len(state.drift) >= self.config.drift_window
                    and sum(state.drift) / len(state.drift)
                    > self.config.drift_threshold):
                self._retrain(fp, state, "drift")
                return
            if state.fresh >= self.config.retrain_every:
                self._retrain(fp, state, "samples")
        elif len(state.samples) >= self.config.min_samples:
            self._retrain(fp, state, "samples")

    def _retrain(self, fp: str, state: _FpState, trigger: str) -> None:
        old = self._models.get(fp)
        snapshot = list(state.samples)
        model = fit_conformal(
            [x for x, _ in snapshot],
            [y for _, y in snapshot],
            coverage=self.config.coverage,
            ridge=self.config.ridge,
            fingerprint=fp,
            machine=state.machine,
            version=(old.version + 1) if old is not None else 1,
        )
        state.fresh = 0
        state.drift.clear()
        if model is None:
            return
        self._models[fp] = model    # the atomic hot swap
        self._n_retrains += 1
        self._retrains.inc(trigger=trigger, machine=state.machine)
        self._version_gauge.set(model.version, machine=state.machine)
        if self.config.store:
            try:
                save_artifact(self.config.store, self._models)
            except OSError:
                log.exception("surrogate artifact write failed")

    # -- control --------------------------------------------------------
    def train_now(self, trigger: str = "manual") -> dict[str, int]:
        """Force a refit of every fingerprint with reservoir samples.

        Returns ``{machine: version}`` for the models now live.  Used
        by tests, the bench, and the drain path.
        """
        self.drain()
        with self._lock:
            states = list(self._state.items())
        for fp, state in states:
            if len(state.samples) >= self.config.min_samples:
                self._retrain(fp, state, trigger)
        return {m.machine or fp: m.version
                for fp, m in self._models.items()}

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until the harvest queue is empty (best effort)."""
        if not self.config.background:
            return True
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                if not self._queue:
                    return True
            time.sleep(0.01)
        return False

    def model_for(self, machine_name: str) -> ConformalModel | None:
        try:
            return self._models.get(machine_fingerprint(machine_name))
        except KeyError:
            return None

    def stats(self) -> dict[str, Any]:
        """Snapshot for ``/healthz`` and the CLI."""
        with self._lock:
            queued = len(self._queue)
            reservoirs = {
                state.machine or fp: len(state.samples)
                for fp, state in self._state.items()
            }
        return {
            "feature_version": FEATURE_VERSION,
            "served": self._n_served,
            "fallthrough": self._n_fallthrough,
            "fallthrough_reasons": dict(self._fall_reasons),
            "retrains": self._n_retrains,
            "samples": self._n_samples,
            "models": {
                m.machine or fp: {
                    "version": m.version,
                    "coverage": m.coverage,
                    "quantile": m.quantile,
                    "n_train": m.n_train,
                    "n_cal": m.n_cal,
                }
                for fp, m in self._models.items()
            },
            "queued": queued,
            "dropped": self._dropped,
            "reservoirs": reservoirs,
        }

    def close(self) -> None:
        if self._thread is None:
            return
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        self._thread.join(timeout=5.0)
        self._thread = None


# ----------------------------------------------------------------------
# offline bootstrap (``repro surrogate train``)


def train_from_cache(
    cache_path: str | os.PathLike,
    *,
    store: str | os.PathLike | None = None,
    coverage: float = 0.9,
    ridge: float = 1e-3,
    min_samples: int = 24,
) -> dict[str, Any]:
    """Bootstrap models from a persisted JSONL result-cache file.

    Every persisted predict entry that carried bindings is a free
    labeled sample: the cache line's ``req`` block (written by the
    engine alongside the response) has the source program, and the
    response value has the exact ``cycles``.  Lines without a ``req``
    block (files from older builds) or without cycles are skipped.
    Returns a summary dict; writes the artifact to ``store`` when
    given.
    """
    import json

    by_fp: dict[str, list[tuple[list[float], float]]] = {}
    machines: dict[str, str] = {}
    samples = skipped = 0
    with open(os.fspath(cache_path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                value = record["value"]
            except (json.JSONDecodeError, KeyError, TypeError):
                skipped += 1
                continue
            req = record.get("req")
            if (not isinstance(key, str) or not key.startswith("predict|")
                    or not isinstance(req, Mapping)
                    or not isinstance(value, Mapping)
                    or value.get("cycles") is None):
                skipped += 1
                continue
            try:
                cycles = float(Fraction(str(value["cycles"])))
                static = extract_static(
                    str(req["source"]), str(req.get("machine", "power")),
                    str(req.get("backend", "aggressive")),
                    bool(req.get("include_memory", False)))
                bindings = {k: Fraction(str(v))
                            for k, v in (req.get("bindings") or {}).items()}
                x = feature_vector(static, bindings)
            except Exception:  # noqa: BLE001 -- skip unfeaturizable lines
                skipped += 1
                continue
            if x is None:
                skipped += 1
                continue
            by_fp.setdefault(static.fingerprint, []).append((x, cycles))
            machines[static.fingerprint] = str(req.get("machine", "power"))
            samples += 1
    models: dict[str, ConformalModel] = dict(
        load_artifact(store) if store else {})
    fitted: dict[str, Any] = {}
    for fp, rows in by_fp.items():
        if len(rows) < min_samples:
            continue
        old = models.get(fp)
        model = fit_conformal(
            [x for x, _ in rows], [y for _, y in rows],
            coverage=coverage, ridge=ridge, fingerprint=fp,
            machine=machines[fp],
            version=(old.version + 1) if old is not None else 1,
        )
        if model is None:
            continue
        models[fp] = model
        fitted[machines[fp]] = {
            "fingerprint": fp, "version": model.version,
            "n_train": model.n_train, "n_cal": model.n_cal,
            "quantile": model.quantile,
        }
    if store and models:
        save_artifact(store, models)
    return {"samples": samples, "skipped": skipped, "models": fitted,
            "store": os.fspath(store) if store else None}
