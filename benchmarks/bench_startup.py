"""E-STARTUP -- what a serving process costs before its first request.

Every shard and router carries its imports for life, and every e2e
run, CI smoke and restart pays its start-up.  This bench spawns real
processes and reads, from the moment each prints its listening line:

* ``repro serve``: wall seconds from spawn to the listening line, and
  VmRSS at that moment;
* ``repro route`` in front of that one live backend: the same two, and
  VmRSS again after it has forwarded one predict (a router whose
  backend is up must not load the predictor).

Rounds alternate serve, then route, ``N`` times; medians are reported
with their min-max.  ``--baseline SRC`` also spawns the pair from
another source tree in every round, in alternating order, so two
commits are compared under the same host drift.  Reports only, no gate:
start-up time drifts with the host.  VmRSS is read from ``/proc``, so
the memory columns need Linux.  Writes ``E-STARTUP.txt`` and
``BENCH_STARTUP.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_startup.py [--quick]
[--baseline OTHER/src]``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from _report import RESULTS_DIR, emit_table

SRC = Path(__file__).resolve().parent.parent / "src"

SAXPY = ("program saxpy\n  integer n, i\n  real x(n), y(n), alpha\n"
         "  do i = 1, n\n    y(i) = y(i) + alpha * x(i)\n  end do\nend\n")

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")

METRICS = (
    ("serve_listen_s", "repro serve: spawn to listening", "s"),
    ("serve_rss_mb", "repro serve: VmRSS at listen", "MB"),
    ("route_listen_s", "repro route: spawn to listening", "s"),
    ("route_rss_mb", "repro route: VmRSS at listen", "MB"),
    ("route_served_rss_mb", "repro route: VmRSS after one predict", "MB"),
)


def _vmrss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return float("nan")


def _spawn(src: Path, args: list[str]):
    """``python -m repro ARGS`` from ``src``: (process, url, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    elapsed = time.perf_counter() - started
    match = _LISTENING.search(line)
    if match is None:
        _stop(process)
        raise RuntimeError(f"repro {args[0]} did not listen: {line!r}")
    return process, match.group(1), elapsed


def _stop(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
    process.stdout.close()


def _predict(url: str) -> None:
    request = urllib.request.Request(
        f"{url}/predict", data=json.dumps({"source": SAXPY}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        answer = json.load(response)
    if answer.get("cost") != "3*n + 8":
        raise RuntimeError(f"routed predict answered {answer}")


def _round(src: Path) -> dict[str, float]:
    serve, backend_url, serve_s = _spawn(src, ["serve", "--port", "0"])
    try:
        sample = {"serve_listen_s": serve_s,
                  "serve_rss_mb": _vmrss_mb(serve.pid)}
        route, url, route_s = _spawn(
            src, ["route", "--port", "0", "--backends", backend_url])
        try:
            sample["route_listen_s"] = route_s
            sample["route_rss_mb"] = _vmrss_mb(route.pid)
            _predict(url)
            sample["route_served_rss_mb"] = _vmrss_mb(route.pid)
        finally:
            _stop(route)
    finally:
        _stop(serve)
    return sample


def _summary(samples: list[dict[str, float]]) -> dict[str, dict]:
    out = {}
    for key, _, _ in METRICS:
        values = [sample[key] for sample in samples]
        out[key] = {"median": statistics.median(values),
                    "min": min(values), "max": max(values)}
    return out


def _cell(stats: dict, unit: str) -> str:
    digits = 3 if unit == "s" else 1
    return (f"{stats['median']:.{digits}f} "
            f"({stats['min']:.{digits}f}-{stats['max']:.{digits}f})")


def measure(rounds: int, baseline: Path | None) -> dict:
    trees = {"this": SRC}
    if baseline is not None:
        trees["baseline"] = baseline
    samples: dict[str, list] = {name: [] for name in trees}
    for index in range(rounds):
        order = list(trees)
        if index % 2:
            order.reverse()
        for name in order:
            samples[name].append(_round(trees[name]))
    return {"rounds": rounds,
            **{name: _summary(runs) for name, runs in samples.items()}}


def _emit(report: dict) -> None:
    has_baseline = "baseline" in report
    header = ["metric", "unit", "this tree: median (min-max)"]
    if has_baseline:
        header += ["baseline: median (min-max)", "change"]
    rows = []
    for key, label, unit in METRICS:
        row = [label, unit, _cell(report["this"][key], unit)]
        if has_baseline:
            before = report["baseline"][key]["median"]
            after = report["this"][key]["median"]
            row += [_cell(report["baseline"][key], unit),
                    f"{100 * (after - before) / before:+.1f}%"]
        rows.append(row)
    emit_table(
        "E-STARTUP",
        f"Serving start-up and footprint, {report['rounds']} rounds",
        header, rows,
        notes=("route runs in front of one live serve; "
               "VmRSS from /proc at the listening line"))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_STARTUP.json").write_text(
        json.dumps(report, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="E-STARTUP report")
    parser.add_argument("--quick", action="store_true",
                        help="3 rounds instead of 7")
    parser.add_argument("--baseline", metavar="SRC", type=Path,
                        help="another tree's src/ to alternate with")
    args = parser.parse_args(argv)
    report = measure(3 if args.quick else 7, args.baseline)
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
