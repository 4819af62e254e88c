"""Smoke test: every workload in ``--quick`` mode, every metric reported.

Run with ``pytest benchmarks/e2e``.  Each invocation spawns real
servers and takes about half a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(tmp_path, trace):
    report_path = tmp_path / "report.json"
    command = [sys.executable, os.path.join(HERE, "run.py"), "--quick",
               "--seed", "0", "--trace", str(trace),
               "--json", str(report_path)]
    if trace:
        command += ["--trace-out", str(tmp_path / "trace.json")]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]

    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for workload in SPEC["workloads"]:
        for metric in wanted:
            reported = last["metrics"][f"{workload['name']}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)

    report = json.loads(report_path.read_text())
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in report["workloads"].values():
        result = entry["sets"][0]
        assert result["error_rate"] == 0
        assert result["checked"] == result["attempted"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        if trace:
            assert set(result["layers"]) == {m["name"]
                                             for m in SPEC["per_layer"]}
    if trace:
        events = json.loads((tmp_path / "trace.json").read_text())
        assert {e["name"] for e in events["traceEvents"]} >= {
            "request", "protocol.decode", "ir.parse", "protocol.encode"}
