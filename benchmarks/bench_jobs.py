"""E-JOBS -- foreground latency isolation under heavy async jobs.

The async-job subsystem's economic claim: a shard can chew on deep
restructure searches *in the background* without wrecking the latency
of its foreground traffic, because

* submission returns in milliseconds (the connection is not held for
  the life of the search, unlike the synchronous ``/restructure``), and
* the searches run one at a time on a job-runner thread, so tiny
  ``/predict`` requests share the interpreter with at most one search.

Topology is real: one ``python -m repro serve --job-store ...`` process
spawned here, driven through :class:`ReproClient` over the production
wire path.  The measured gate (checked by the ``jobs-smoke`` CI job):
tiny-predict p95 with four heavy jobs in flight stays within 2x of the
same server idle.  Writes ``E-JOBS.txt`` and ``BENCH_JOBS.json``.
"""

import json
import statistics
import sys
import tempfile
import time

from repro.service import ReproClient
from repro.service.cluster import spawn_backend

from _report import RESULTS_DIR, emit_table

HEAVY_JOBS = 4
P95_FLOOR = 2.0          # loaded p95 must stay within this factor of idle

TINY = """
program tiny{index}
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i) + {index}.0
  end do
end
"""

HEAVY = """
program heavy{index}
  integer n, i, j
  real a(n,n), b(n,n), c(n,n)
  do i = 1, n
    do j = 1, n
      a(j,i) = b(j,i) + c(j,i) * {index}.0
      c(j,i) = a(j,i) * b(j,i)
    end do
  end do
end
"""


def _p95(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]


def _sample_predicts(client, count, offset):
    """Per-request wall seconds for ``count`` distinct tiny predicts."""
    samples = []
    for index in range(count):
        source = TINY.format(index=offset + index)
        started = time.perf_counter()
        response = client.predict(source)
        samples.append(time.perf_counter() - started)
        if not hasattr(response, "cost"):
            raise RuntimeError(f"predict failed: {response}")
    return samples


def _measure(samples_per_phase):
    # Default job slots (one): the subsystem's own slot cap is what
    # keeps four in-flight jobs from starving the foreground.  The job
    # store is removed once the backend has stopped.
    with tempfile.TemporaryDirectory(prefix="bench-jobs-") as store, \
            spawn_backend(cache_size=8,
                          extra_args=("--job-store", store)) as backend:
        with ReproClient(backend.url, timeout=120) as client:
            _sample_predicts(client, 10, offset=900_000)   # warm the pipeline
            idle = _sample_predicts(client, samples_per_phase, offset=0)

            # The connection-hold comparison: a synchronous restructure
            # holds its socket for the whole search; a submit answers as
            # soon as the job is durably queued.
            sync_started = time.perf_counter()
            client.restructure(HEAVY.format(index=77), depth=2,
                               max_nodes=60)
            sync_hold_s = time.perf_counter() - sync_started

            job_ids = []
            submit_s = []
            for index in range(HEAVY_JOBS):
                started = time.perf_counter()
                submitted = client.submit_restructure(
                    HEAVY.format(index=index), depth=6, max_nodes=10000,
                    beam_width=2)
                submit_s.append(time.perf_counter() - started)
                job_ids.append(submitted.job_id)

            loaded = _sample_predicts(client, samples_per_phase,
                                      offset=100_000)
            still_running = sum(
                1 for job_id in job_ids
                if client.job_status(job_id).status in ("queued", "running"))
            for job_id in job_ids:
                client.cancel_job(job_id)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                statuses = [client.job_status(j).status for j in job_ids]
                if all(s in ("done", "error", "cancelled") for s in statuses):
                    break
                time.sleep(0.1)

    idle_p95 = _p95(idle)
    loaded_p95 = _p95(loaded)
    return {
        "samples_per_phase": samples_per_phase,
        "heavy_jobs": HEAVY_JOBS,
        "idle_p95_ms": idle_p95 * 1e3,
        "idle_median_ms": statistics.median(idle) * 1e3,
        "loaded_p95_ms": loaded_p95 * 1e3,
        "loaded_median_ms": statistics.median(loaded) * 1e3,
        "p95_ratio": loaded_p95 / idle_p95,
        "submit_max_ms": max(submit_s) * 1e3,
        "sync_restructure_hold_ms": sync_hold_s * 1e3,
        "jobs_running_during_sampling": still_running,
    }


def _emit(report, quick):
    report["quick"] = quick
    rows = [
        ("idle", f"{report['idle_median_ms']:.2f}ms",
         f"{report['idle_p95_ms']:.2f}ms", "1.00x"),
        (f"{HEAVY_JOBS} heavy jobs in flight",
         f"{report['loaded_median_ms']:.2f}ms",
         f"{report['loaded_p95_ms']:.2f}ms",
         f"{report['p95_ratio']:.2f}x"),
    ]
    notes = (f"submit hold <= {report['submit_max_ms']:.1f}ms vs "
             f"{report['sync_restructure_hold_ms']:.0f}ms for a "
             f"synchronous /restructure; "
             f"{report['jobs_running_during_sampling']}/{HEAVY_JOBS} jobs "
             f"still running when sampling ended")
    emit_table(
        "E-JOBS",
        "Tiny-predict latency with heavy async jobs in the background",
        ["foreground traffic", "median", "p95", "p95 vs idle"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_JOBS.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def main(argv=None):
    """Standalone entry for the CI jobs-smoke gate: no pytest needed."""
    import argparse

    parser = argparse.ArgumentParser(description="E-JOBS gate")
    parser.add_argument("--quick", action="store_true",
                        help="fewer samples (CI runners share cores)")
    args = parser.parse_args(argv)
    samples = 60 if args.quick else 200
    report = _measure(samples)
    out = _emit(report, quick=args.quick)
    if report["p95_ratio"] > P95_FLOOR:
        print(f"FAIL: loaded tiny-predict p95 {report['p95_ratio']:.2f}x "
              f"idle, above the {P95_FLOOR:.1f}x gate")
        return 1
    if report["submit_max_ms"] > report["sync_restructure_hold_ms"]:
        print("FAIL: job submission held the connection longer than a "
              "synchronous restructure")
        return 1
    print(f"jobs ok: loaded p95 {report['p95_ratio']:.2f}x idle "
          f"({report['loaded_p95_ms']:.2f}ms vs "
          f"{report['idle_p95_ms']:.2f}ms), submit hold "
          f"{report['submit_max_ms']:.1f}ms ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
