"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_bindings, _parse_domain, main

SAXPY = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

SAXPY_UNROLLED = """
program saxpy2
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n, 2
    y(i) = y(i) + alpha * x(i)
    y(i+1) = y(i+1) + alpha * x(i+1)
  end do
end
"""


@pytest.fixture
def saxpy_file(tmp_path):
    path = tmp_path / "saxpy.f"
    path.write_text(SAXPY)
    return str(path)


@pytest.fixture
def unrolled_file(tmp_path):
    path = tmp_path / "saxpy2.f"
    path.write_text(SAXPY_UNROLLED)
    return str(path)


def test_parse_bindings():
    assert _parse_bindings("n=100,m=50") == {"n": 100, "m": 50}
    assert _parse_bindings(None) == {}
    with pytest.raises(SystemExit):
        _parse_bindings("n")


def test_parse_domain():
    domain = _parse_domain("n=1:1000")
    assert domain["n"].lo == 1 and domain["n"].hi == 1000
    assert _parse_domain(None) == {}
    with pytest.raises(SystemExit):
        _parse_domain("n=5")


def test_predict_command(saxpy_file, capsys):
    assert main(["predict", saxpy_file, "--at", "n=100"]) == 0
    out = capsys.readouterr().out
    assert "cost[power]" in out
    assert "308 cycles" in out


def test_predict_with_memory_and_machine(saxpy_file, capsys):
    assert main(["predict", saxpy_file, "--machine", "scalar",
                 "--memory"]) == 0
    out = capsys.readouterr().out
    assert "cost[scalar]" in out


def test_predict_naive_backend_higher(saxpy_file, capsys):
    main(["predict", saxpy_file, "--at", "n=100"])
    aggressive = capsys.readouterr().out
    main(["predict", saxpy_file, "--backend", "naive", "--at", "n=100"])
    naive = capsys.readouterr().out

    def cycles(text):
        return int(text.split("at n=100:")[1].split("cycles")[0].strip())

    assert cycles(naive) > cycles(aggressive)


def test_compare_command(saxpy_file, unrolled_file, capsys):
    assert main(["compare", unrolled_file, saxpy_file,
                 "--domain", "n=1:100000"]) == 0
    out = capsys.readouterr().out
    assert "verdict:" in out


def test_restructure_command(saxpy_file, capsys):
    assert main(["restructure", saxpy_file, "--workload", "n=1000",
                 "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "sequence:" in out
    assert "cost:" in out


def test_kernels_command(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "jacobi" in out


def test_machines_command(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "power" in out and "scalar" in out and "wide" in out


def test_predict_json(saxpy_file, capsys):
    assert main(["predict", saxpy_file, "--at", "n=100", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cost"] == "3*n + 8"
    assert data["cycles"] == "308"
    assert len(data["digest"]) == 64


def test_predict_json_without_bindings(saxpy_file, capsys):
    assert main(["predict", saxpy_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cycles"] is None
    assert data["variables"] == ["n"]


def test_compare_json(saxpy_file, unrolled_file, capsys):
    assert main(["compare", unrolled_file, saxpy_file,
                 "--domain", "n=1:100000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "verdict" in data
    assert data["digest_first"] != data["digest_second"]


def test_kernels_json(capsys):
    assert main(["kernels", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = {row["kernel"] for row in data["rows"]}
    assert {"matmul", "jacobi", "rb"} <= names
    for row in data["rows"]:
        assert set(row) == {"kernel", "predicted", "reference", "error_pct"}


def test_predict_json_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.f"
    bad.write_text("program broken\n  do i =\nend\n")
    assert main(["predict", str(bad), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == 400


def test_serve_subcommand_registered():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "1", "--cache-size", "64"])
    assert args.port == 0 and args.workers == 1 and args.cache_size == 64


def test_serve_workers_is_inline_only(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["serve", "--workers", "0"]).workers == 0
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(["serve", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "repro route" in capsys.readouterr().err


def test_missing_file():
    with pytest.raises(SystemExit):
        main(["predict", "/nonexistent/prog.f"])


def test_bad_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_predict_trace_writes_chrome_json(saxpy_file, tmp_path, capsys):
    # Start cold: a warm placement memo would answer without running
    # the cost.place span this test asserts on.
    from repro.cost import reset_placement_cache
    reset_placement_cache()

    trace_path = tmp_path / "trace.json"
    assert main(["predict", saxpy_file, "--trace", str(trace_path)]) == 0
    assert "cost[power]" in capsys.readouterr().out
    document = json.loads(trace_path.read_text())
    events = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in events}
    assert "cli.predict" in names
    assert {"translate.specialize", "cost.place", "aggregate.loop"} <= names
    for event in events:
        assert event["dur"] >= 0 and event["ts"] > 0


def test_compare_trace_flag(saxpy_file, unrolled_file, tmp_path, capsys):
    trace_path = tmp_path / "cmp.json"
    assert main(["compare", saxpy_file, unrolled_file,
                 "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    names = {e["name"]
             for e in json.loads(trace_path.read_text())["traceEvents"]
             if e.get("ph") == "X"}
    assert "cli.compare" in names


def test_restructure_trace_has_search_span(saxpy_file, tmp_path, capsys):
    trace_path = tmp_path / "rs.json"
    assert main(["restructure", saxpy_file, "--workload", "n=64",
                 "--depth", "1", "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    names = {e["name"]
             for e in json.loads(trace_path.read_text())["traceEvents"]
             if e.get("ph") == "X"}
    assert "transform.search" in names


def test_untraced_run_writes_nothing(saxpy_file, tmp_path, capsys):
    assert main(["predict", saxpy_file]) == 0
    capsys.readouterr()
    assert not list(tmp_path.glob("*.json"))


# ----------------------------------------------------------------------
# tiered fidelity: surrogate train + predict --fidelity


def _build_training_cache(path, sizes=range(1, 31)):
    from repro.service import PredictionEngine

    with PredictionEngine(workers=0, cache_size=256,
                          cache_path=str(path)) as engine:
        for n in sizes:
            result = engine.handle(
                "predict", {"source": SAXPY, "bindings": {"n": n}})
            assert "error" not in result


def test_surrogate_train_bootstraps_models(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    _build_training_cache(cache)
    store = tmp_path / "models.json"
    assert main(["surrogate", "train", "--cache", str(cache),
                 "--store", str(store)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 30
    assert "power" in summary["models"]
    assert store.exists()


def test_surrogate_train_empty_cache_fails(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    assert main(["surrogate", "train", "--cache", str(cache)]) == 1
    assert json.loads(capsys.readouterr().out)["models"] == {}


def test_predict_fast_fidelity_from_store(tmp_path, saxpy_file, capsys):
    cache = tmp_path / "cache.jsonl"
    _build_training_cache(cache)
    store = tmp_path / "models.json"
    assert main(["surrogate", "train", "--cache", str(cache),
                 "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["predict", saxpy_file, "--at", "n=50",
                 "--fidelity", "fast", "--surrogate-store", str(store)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == "fast"
    lo, hi = data["interval"]
    assert lo <= float(data["cycles"]) <= hi
    # truth is 3n+8 = 158; the surrogate trained on exact labels
    assert abs(float(data["cycles"]) - 158.0) < 5.0


def test_predict_fast_without_model_falls_through(saxpy_file, tmp_path,
                                                  capsys):
    missing = tmp_path / "nope.json"
    assert main(["predict", saxpy_file, "--at", "n=100",
                 "--fidelity", "fast",
                 "--surrogate-store", str(missing)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "fidelity" not in data          # exact tier answered
    assert data["cycles"] == "308"


def test_predict_auto_fidelity_tolerance(tmp_path, saxpy_file, capsys):
    cache = tmp_path / "cache.jsonl"
    _build_training_cache(cache)
    store = tmp_path / "models.json"
    main(["surrogate", "train", "--cache", str(cache),
          "--store", str(store)])
    capsys.readouterr()
    assert main(["predict", saxpy_file, "--at", "n=50",
                 "--fidelity", "auto", "--tolerance", "1e-12",
                 "--surrogate-store", str(store)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "fidelity" not in data          # interval too wide: exact
    assert data["cycles"] == "158"


def test_calibrate_command(tmp_path, capsys):
    out_path = tmp_path / "power-calib.json"
    assert main(["calibrate", "--machine", "power",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "mean rel error" in out
    payload = json.loads(out_path.read_text())
    assert payload["format"] == "repro-cost-table-v1"
    assert "fpu_arith" in payload["table"]


def test_calibrate_json_output(capsys):
    assert main(["calibrate", "--machine", "power", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "repro-cost-table-v1"


def test_sweep_command(saxpy_file, capsys):
    assert main(["sweep", saxpy_file, "--at", "n=100",
                 "--widths", "1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "saturates at width" in out
    # Width 1 is fetch-bound at exactly one instruction per cycle.
    assert " 1 " in out or out.lstrip().startswith("1")


def test_sweep_json_output(saxpy_file, capsys):
    assert main(["sweep", saxpy_file, "--at", "n=100", "--widths", "1,8",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["widths"] == [1, 8]
    assert data["points"][0]["ipc"] == 1.0


def test_sweep_over_calibrated_table(saxpy_file, tmp_path, capsys):
    table = tmp_path / "table.json"
    main(["calibrate", "--machine", "power", "--out", str(table)])
    capsys.readouterr()
    assert main(["sweep", saxpy_file, "--at", "n=100",
                 "--table", str(table), "--widths", "2,4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["points"]) == 2
