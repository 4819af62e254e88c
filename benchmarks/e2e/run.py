#!/usr/bin/env python3
"""End-to-end benchmark of the prediction service, over the real wire.

Starts real ``repro serve`` / ``repro route`` processes, drives them
from this one process through ``ReproClient`` (closed loop, at most two
threads on two keep-alive connections), checks every answer off the
clock against an independent in-process reference, and prints each
metric by name and unit.  ``--trace 1`` also measures per-layer
metrics: deltas of the servers' ``/metrics`` over the timed window, and
self times from an in-process replay of the same request stream traced
by this benchmark's own spans.

    python3 benchmarks/e2e/run.py --seed 0                 # every workload
    python3 benchmarks/e2e/run.py --workload hot_predict --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --repeat 2 --json out.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``.  Metric names carry a ``<workload>.`` prefix when more
than one workload runs.  The exit code
is nonzero when any request failed or answered wrong, or when a
``--repeat`` spread exceeds its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Setups per run; ``setup_s`` is their median, the last one is timed.
SETUPS = 5


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _quantile(values: list[float], percent: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(percent) - 1]


def _setup(workload, seed: int, setups: int):
    from live import Topology, warm

    seconds = []
    for attempt in range(setups):
        topology = Topology(workload.routed, SRC)
        started = time.perf_counter()
        try:
            topology.start()
            warm(topology.url, workload.warm(seed))
        except BaseException:
            topology.stop()
            raise
        seconds.append(time.perf_counter() - started)
        if attempt < setups - 1:
            topology.stop()
    return topology, seconds


def run_workload(workload, seed: int, seconds: float, *, setups: int,
                 traced: bool, replay_count: int,
                 events: list | None) -> dict:
    """One set: setup, timed window, answer checks, optional replays.

    With ``traced``, the replay's spans are appended to ``events`` as
    Chrome-trace events when it is a list.
    """
    from check import check_records
    from live import drive, live_layers, scrape
    from repro.service import ReproClient

    topology, setup_seconds = _setup(workload, seed, setups)
    try:
        groups = {"backends": topology.backend_urls,
                  "router": [topology.url] if workload.routed else []}
        before = {key: scrape(urls) for key, urls in groups.items()}
        records, start, rss_mb = drive(topology, workload, seed, seconds)
        after = {key: scrape(urls) for key, urls in groups.items()}
        with ReproClient(topology.url, retries=0) as client:
            rows = client.kernels().rows
    finally:
        topology.stop()

    answered = [r for r in records if r.error is None]
    checked, wrong, reasons = check_records(
        [(r.kind, r.payload, r.response) for r in answered], seed)
    reasons = [r.error for r in records if r.error][:5] + reasons
    failed = len(records) - len(answered) + wrong
    latencies = sorted((r.ended - r.started) * 1e3 for r in records)
    tail = _quantile(latencies, workload.tail)
    elapsed = max(r.ended for r in records) - start
    mean_ms = statistics.fmean(latencies)
    result = {
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "checked": checked,
        "wrong": wrong,
        "reasons": reasons,
        "tail_percentile": workload.tail,
        "samples": len(latencies),
        "beyond_tail": sum(value > tail for value in latencies),
        "setup_runs_s": setup_seconds,
        "metrics": {
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail,
            "throughput_rps": len(answered) / elapsed,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": rss_mb,
            "model_error_pct": statistics.fmean(
                abs(row.error_pct) for row in rows),
        },
    }
    if traced:
        kinds = {r.kind for r in records}
        layers = live_layers(before, after, kinds, mean_ms)
        layers.update(_replay_layers(workload, seed, replay_count, events))
        result["layers"] = layers
    return result


def _replay_layers(workload, seed: int, count: int,
                   events: list | None) -> dict[str, float]:
    from replay import LAYER_SPANS, measure

    replayed = measure(workload.name, seed, count,
                       want_events=events is not None)
    if replayed["errors"]:
        raise RuntimeError(f"{workload.name}: in-process replay answered "
                           f"{replayed['errors']} errors")
    if events is not None:
        pid = len({event["pid"] for event in events}) + 1
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload.name}})
        events.extend({**event, "pid": pid} for event in replayed["events"])
    self_us = replayed["self_us"]
    counts = replayed["counts"]
    plain_us = replayed["plain_us"]
    layers = {f"{name}_us": self_us.get(name, 0.0) for name in LAYER_SPANS}
    layers["search.request_ms"] = layers.pop("search.request_us") / 1e3
    for name in ("translate.ops", "cost.place_calls", "search.nodes_expanded"):
        layers[name] = counts.get(name, 0.0)
    explained = sum(self_us.get(name, 0.0) for name in LAYER_SPANS)
    layers["engine.handle_us"] = plain_us
    # The layer self times plus the root span's own time are the traced
    # total exactly; the unexplained share is the root's part of it.
    # (Measured against the untraced total instead, it would inherit the
    # noise of two separate replays: +-20% on a shared 2-vCPU host.)
    layers["layers.unexplained_pct"] = 100.0 * (
        1.0 - explained / replayed["traced_us"])
    layers["trace.overhead_pct"] = 100.0 * (
        replayed["traced_us"] / plain_us - 1.0)
    return layers


def _print_set(workload, result: dict, units: dict, seconds: float) -> None:
    print(f"== {workload.name}: {workload.conns} connection(s), closed loop, "
          f"{seconds:g} s window{', routed' if workload.routed else ''} ==")
    for metric, value in result["metrics"].items():
        note = ""
        if metric == "latency_tail_ms":
            note = (f"  (p{workload.tail:g} of {result['samples']} samples, "
                    f"{result['beyond_tail']} beyond)")
        print(f"  {metric:24s} {value:12.4f} {units[metric]}{note}")
    print(f"  {'error_rate':24s} {result['error_rate']:12.4f} "
          f"({result['failed']} failed of {result['attempted']}; "
          f"{result['checked']} answers checked)")
    for reason in result["reasons"]:
        print(f"    ! {reason}")
    for metric, value in result.get("layers", {}).items():
        print(f"  {metric:24s} {value:12.4f} {units[metric]}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=_positive_seconds,
                        default=spec["run_seconds"],
                        help="timed window per workload, > 0 (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1, write the replay's spans as "
                             "Chrome-trace JSON")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="N sets per workload; fail on a spread over "
                             "its bound")
    parser.add_argument("--quick", action="store_true",
                        help="1 s windows, one setup, short replays")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = 1.0 if args.quick else args.seconds
    setups = 1 if args.quick else SETUPS
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    report = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    events: list | None = [] if args.trace_out else None
    attempted = failed = 0
    over_bound = []
    final: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        replays = min(workload.replay, 8) if args.quick else workload.replay
        sets = []
        for _ in range(args.repeat):
            result = run_workload(
                workload, args.seed, seconds, setups=setups,
                traced=bool(args.trace), replay_count=replays, events=events)
            _print_set(workload, result, units, seconds)
            sets.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
        entry: dict = {"sets": sets}
        if args.repeat > 1:
            entry["spread"] = {}
            for metric in spec["end_to_end"]:
                values = [s["metrics"][metric["name"]] for s in sets]
                spread = (max(values) - min(values)) / statistics.median(
                    values)
                entry["spread"][metric["name"]] = spread
                over = spread > metric["bound"]
                print(f"  spread {metric['name']:24s} {spread:8.2%} "
                      f"(bound {metric['bound']:.0%}){'  OVER' if over else ''}")
                if over:
                    over_bound.append(f"{name}.{metric['name']}")
        report["workloads"][name] = entry
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            values = [{**s["metrics"], **s.get("layers", {})}[metric["name"]]
                      for s in sets]
            key = (metric["name"] if len(names) == 1
                   else f"{name}.{metric['name']}")
            final[key] = {"value": statistics.median(values),
                          "unit": metric["unit"]}

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if events is not None:
        with open(args.trace_out, "w") as handle:
            json.dump({"traceEvents": events}, handle)
    if over_bound:
        print("spread over bound: " + ", ".join(over_bound))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": final,
    }))
    return 1 if failed or over_bound else 0


if __name__ == "__main__":
    sys.exit(main())
