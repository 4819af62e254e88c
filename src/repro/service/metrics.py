"""Process-wide service metrics in Prometheus text exposition format.

Dependency-free counters, gauges, and cumulative histograms, rendered
by ``GET /metrics`` exactly the way a Prometheus scraper expects:

    # HELP repro_requests_total Requests served, by endpoint and status.
    # TYPE repro_requests_total counter
    repro_requests_total{endpoint="predict",status="200"} 42

All mutation is lock-protected; the server handles requests on many
threads and the engine may report from worker callbacks.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple

from ..obs.caches import cache_stats

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "MetricSample", "MetricFamily", "export_memo_metrics",
    "parse_exposition", "render_exposition",
]

#: Latency buckets in seconds -- spans a cache hit (~10us) to a deep
#: restructure search (seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping; anything else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(key: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def render(self) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing per-labelset count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(key)} {_format_value(value)}"
            for key, value in items
        ] or [f"{self.name} 0"]


class Gauge(_Metric):
    """A value that can go up and down (cache size, worker count)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(key)} {_format_value(value)}"
            for key, value in items
        ] or [f"{self.name} 0"]


class Histogram(_Metric):
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        empty = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._counts: dict[tuple[tuple[str, str], ...], list[int]] = {}
        self._sums: dict[tuple[tuple[str, str], ...], float] = {}
        self._empty = empty

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.setdefault(key, list(self._empty))
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        with self._lock:
            return sum(self._counts.get(_label_key(labels), self._empty))

    def reset(self) -> None:
        """Drop all observations (for snapshot-style distributions that
        are rebuilt from current state on every scrape)."""
        with self._lock:
            self._counts.clear()
            self._sums.clear()

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(
                (key, list(counts), self._sums.get(key, 0.0))
                for key, counts in self._counts.items()
            )
        lines: list[str] = []
        for key, counts, total in items:
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                labels = _render_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{labels} {running}")
            running += counts[-1]
            labels = _render_labels(key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {running}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {running}")
        return lines


class MetricsRegistry:
    """Create-or-get metric instruments and render them all at once."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)  # type: ignore[return-value]

    def render(self) -> str:
        """The full ``/metrics`` payload."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: (snapshot field, gauge family, help) for :func:`export_memo_metrics`.
#: Deliberately not ``repro_cache_*``: those unlabelled series are the
#: result cache's, and readers sum every sample of that family.
_MEMO_FAMILIES = (
    ("hits", "repro_memo_hits_total", "Bounded-cache hits, by cache."),
    ("misses", "repro_memo_misses_total", "Bounded-cache misses, by cache."),
    ("evictions", "repro_memo_evictions_total",
     "Bounded-cache LRU evictions, by cache."),
    ("entries", "repro_memo_entries",
     "Resident bounded-cache entries, by cache."),
)


def export_memo_metrics(registry: MetricsRegistry) -> None:
    """Publish every live bounded cache of this process into ``registry``.

    One gauge per counter, labelled ``cache=<name>``; called at scrape
    time, so the samples are snapshots of :func:`repro.obs.cache_stats`.
    """
    stats = cache_stats()
    for field, name, help_text in _MEMO_FAMILIES:
        gauge = registry.gauge(name, help_text)
        for cache, counts in stats.items():
            gauge.set(counts[field], cache=cache)


# ---------------------------------------------------------------------------
# Exposition parsing / re-rendering (mergeable snapshots)
# ---------------------------------------------------------------------------
#
# The cluster router scrapes every shard's ``/metrics`` text and merges
# the snapshots into one exposition (``repro.obs.aggregate``).  That
# requires going the other way: text -> structured samples -> text.
# The parser handles exactly the dialect this module renders plus the
# common Prometheus conventions (escaped label values, ``+Inf`` bucket
# bounds, histogram ``_bucket``/``_sum``/``_count`` series grouped
# under their family).

#: Series-name suffixes that attach a sample to a histogram family.
_FAMILY_SUFFIXES = ("_bucket", "_sum", "_count")


class MetricSample(NamedTuple):
    """One sample line: full series name, sorted labels, value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


class MetricFamily:
    """All samples sharing one metric name (and its HELP/TYPE)."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str = "untyped", help_text: str = ""):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: list[MetricSample] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricFamily({self.name!r}, kind={self.kind!r}, "
                f"samples={len(self.samples)})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricFamily):
            return NotImplemented
        # Sample order is a rendering concern, not an identity one.
        return (self.name == other.name and self.kind == other.kind
                and self.help == other.help
                and sorted(self.samples) == sorted(other.samples))

    __hash__ = None  # mutable (samples list); unhashable like other mutables


def _parse_number(text: str) -> float:
    text = text.strip()
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _parse_labels(body: str) -> tuple[tuple[str, str], ...]:
    """Parse the inside of ``{...}`` honoring value escapes."""
    labels: list[tuple[str, str]] = []
    i = 0
    length = len(body)
    while i < length:
        while i < length and body[i] in ", \t":
            i += 1
        if i >= length:
            break
        eq = body.index("=", i)
        name = body[i:eq].strip()
        i = eq + 1
        if i >= length or body[i] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        i += 1
        chars: list[str] = []
        while i < length and body[i] != '"':
            ch = body[i]
            if ch == "\\" and i + 1 < length:
                nxt = body[i + 1]
                chars.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                i += 2
            else:
                chars.append(ch)
                i += 1
        if i >= length:
            raise ValueError(f"unterminated label value in {body!r}")
        i += 1  # closing quote
        labels.append((name, "".join(chars)))
    return tuple(sorted(labels))


def _split_sample_line(line: str) -> MetricSample:
    brace = line.find("{")
    if brace >= 0:
        name = line[:brace]
        # Find the matching close brace, skipping quoted values.
        i = brace + 1
        in_quotes = False
        while i < len(line):
            ch = line[i]
            if in_quotes:
                if ch == "\\":
                    i += 1
                elif ch == '"':
                    in_quotes = False
            elif ch == '"':
                in_quotes = True
            elif ch == "}":
                break
            i += 1
        if i >= len(line):
            raise ValueError(f"unterminated label set: {line!r}")
        labels = _parse_labels(line[brace + 1:i])
        value = _parse_number(line[i + 1:])
    else:
        name, _, rest = line.partition(" ")
        labels = ()
        # A timestamp column, if present, is dropped.
        value = _parse_number(rest.split()[0])
    return MetricSample(name.strip(), labels, value)


def _family_name(series: str, families: Mapping[str, MetricFamily]) -> str:
    if series in families:
        return series
    for suffix in _FAMILY_SUFFIXES:
        if series.endswith(suffix):
            base = series[: -len(suffix)]
            if base in families:
                return base
    return series


def parse_exposition(text: str) -> dict[str, MetricFamily]:
    """Parse Prometheus text exposition into metric families.

    Unknown series (no preceding ``# TYPE``) become untyped families
    named after the series itself; malformed lines raise ``ValueError``
    -- a shard handing back garbage should fail loudly in the merge,
    not silently drop samples.
    """
    families: dict[str, MetricFamily] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                family = families.get(name)
                if family is None:
                    family = families[name] = MetricFamily(name)
                if parts[1] == "TYPE":
                    family.kind = parts[3].strip() if len(parts) > 3 \
                        else "untyped"
                elif len(parts) > 3:
                    family.help = parts[3]
            continue
        sample = _split_sample_line(line)
        name = _family_name(sample.name, families)
        family = families.get(name)
        if family is None:
            family = families[name] = MetricFamily(name)
        family.samples.append(sample)
    return families


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Render families back to exposition text (inverse of parse)."""
    lines: list[str] = []
    for family in sorted(families, key=lambda f: f.name):
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in sorted(
                family.samples,
                key=lambda s: (s.name,
                               tuple(l for l in s.labels if l[0] != "le"),
                               _bucket_order(s))):
            rendered = _render_labels(sample.labels)
            lines.append(
                f"{sample.name}{rendered} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def _bucket_order(sample: MetricSample) -> float:
    """Sort key keeping ``le`` buckets in ascending numeric order."""
    for name, value in sample.labels:
        if name == "le":
            try:
                return _parse_number(value)
            except ValueError:
                return math.inf
    return -math.inf
