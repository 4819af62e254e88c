"""E-CALIB -- auto-calibration fidelity and width-sweep amortisation.

Two questions, two floors (both gated by the ``calib-smoke`` CI job):

* is calibration *faithful*: perturb the POWER cost table, treat a
  simulator over the perturbed machine as the ground-truth cycle
  oracle, calibrate the pristine base against it, then predict a pool
  of validation kernels with the recovered table.  Mean relative
  prediction error vs the oracle machine must be <= 5%;
* is the sweep *amortised*: an 8-width ``/sweep`` through the engine
  shares translation and stream preparation across the family, so its
  warm p50 must stay within 3x of a warm single-width ``/predict`` --
  not the naive 8x of predicting each width separately.

Besides ``E-CALIB.txt`` this writes
``benchmarks/results/BENCH_CALIB.json`` for the CI gate.
"""

import dataclasses
import json
import statistics
import time
from fractions import Fraction

import repro
from repro.calib import SimulatorOracle, calibrate_machine
from repro.machine import AtomicCostTable, AtomicOp, UnitCost, power_machine
from repro.service import PredictionEngine

from _report import RESULTS_DIR, emit_table

#: Deterministic table perturbation: (noncoverable delta, coverable
#: delta) per primary cost.  Mixed signs and magnitudes so recovery is
#: not a fixpoint no-op.
TRUTH_DELTAS = {
    "fpu_arith": (1, 1),
    "fpu_div": (2, 0),
    "fxu_add": (1, 0),
    "fxu_mul3": (0, 2),
    "lsu_load": (0, 1),
    "lsu_store": (1, 1),
}

#: Validation kernels: structurally distinct loop bodies, none of them
#: probe shapes, so accuracy is measured on real programs.
VALIDATION_KERNELS = (
    ("saxpy", """
program saxpy
  integer n, i
  real alpha, x(n), y(n)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""),
    ("dot", """
program dot
  integer n, i
  real s, x(n), y(n)
  do i = 1, n
    s = s + x(i) * y(i)
  end do
end
"""),
    ("mixed", """
program mixed
  integer n, i
  real a(n), b(n), c(n)
  do i = 1, n
    a(i) = b(i) * c(i) + a(i)
    c(i) = a(i) / b(i)
    b(i) = b(i) + 2.0
  end do
end
"""),
)

VALIDATION_SIZES = (16, 50, 128, 400)

SWEEP_WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8]

SWEEP_SRC = VALIDATION_KERNELS[0][1]


def _truth_machine():
    """POWER with the primary costs shifted by TRUTH_DELTAS."""
    base = power_machine()
    table = AtomicCostTable()
    for name in base.table.names():
        op = base.atomic(name)
        dn, dc = TRUTH_DELTAS.get(name, (0, 0))
        primary = op.costs[0]
        # noncoverable stays >= 1: fully-coverable ops are
        # dispatch-bound and outside the calibration algebra.
        shifted = UnitCost(primary.unit,
                           max(1, primary.noncoverable + dn),
                           max(0, primary.coverable + dc))
        table.define(AtomicOp(name, (shifted,) + op.costs[1:],
                              op.description))
    return dataclasses.replace(base, name="power-truth", table=table)


def _prediction_error():
    """Calibrate against the perturbed oracle, validate on kernels."""
    truth = _truth_machine()
    result = calibrate_machine(power_machine(), SimulatorOracle(truth),
                               name="power-recovered")
    recovered = result.machine
    errors = []
    for _, source in VALIDATION_KERNELS:
        program = repro.parse_program(source)
        want = repro.predict(program, machine=truth)
        got = repro.predict(program, machine=recovered)
        for n in VALIDATION_SIZES:
            bindings = {"n": Fraction(n)}
            truth_cycles = float(want.evaluate(bindings))
            errors.append(abs(float(got.evaluate(bindings)) - truth_cycles)
                          / truth_cycles)
    return {
        "probes": result.probes,
        "fit_mean_abs_residual": result.mean_abs_residual,
        "fit_mean_relative_error": result.mean_relative_error,
        "validation_points": len(errors),
        "prediction_rel_error_mean": statistics.fmean(errors),
        "prediction_rel_error_max": max(errors),
    }


def _sweep_amortisation(reps):
    """Warm p50 of an 8-width engine sweep vs a single engine predict.

    Distinct bindings per rep keep every request a result-cache miss,
    so the ratio measures the shared-translation sweep pipeline, not
    the cache.
    """
    engine = PredictionEngine(workers=0, cache_size=4096)
    try:
        for n in (11, 12, 13):            # warm parse/placement memos
            engine.handle("predict", {"source": SWEEP_SRC,
                                      "bindings": {"n": n}})
            engine.handle("sweep", {"source": SWEEP_SRC,
                                    "bindings": {"n": n},
                                    "widths": SWEEP_WIDTHS})
        predict_wall = []
        for rep in range(reps):
            payload = {"source": SWEEP_SRC,
                       "bindings": {"n": 1000 + rep}}
            t0 = time.perf_counter()
            result = engine.handle("predict", payload)
            predict_wall.append(time.perf_counter() - t0)
            assert "error" not in result, result
        sweep_wall = []
        for rep in range(reps):
            payload = {"source": SWEEP_SRC,
                       "bindings": {"n": 1000 + rep},
                       "widths": SWEEP_WIDTHS}
            t0 = time.perf_counter()
            result = engine.handle("sweep", payload)
            sweep_wall.append(time.perf_counter() - t0)
            assert "error" not in result, result
    finally:
        engine.close()
    predict_p50 = statistics.median(predict_wall)
    sweep_p50 = statistics.median(sweep_wall)
    return {
        "widths": len(SWEEP_WIDTHS),
        "predict_p50_seconds": predict_p50,
        "sweep_p50_seconds": sweep_p50,
        "sweep_ratio": sweep_p50 / predict_p50,
    }


def _calib_rows(reps):
    accuracy = _prediction_error()
    timing = _sweep_amortisation(reps)
    rows = [
        ("fit residual", f"{accuracy['fit_mean_abs_residual']:.3f}cy",
         f"{accuracy['probes']} probes", "-"),
        ("prediction rel error",
         f"{accuracy['prediction_rel_error_mean'] * 100:.2f}%",
         f"max {accuracy['prediction_rel_error_max'] * 100:.2f}%",
         f"{accuracy['validation_points']} pts"),
        ("single predict p50",
         f"{timing['predict_p50_seconds'] * 1e6:,.0f}us", "-", "-"),
        (f"{timing['widths']}-width sweep p50",
         f"{timing['sweep_p50_seconds'] * 1e6:,.0f}us",
         f"{timing['sweep_ratio']:.2f}x",
         f"naive would be {timing['widths']}x"),
    ]
    notes = (f"oracle = simulator over POWER with {len(TRUTH_DELTAS)} "
             f"perturbed primary costs; validation = "
             f"{len(VALIDATION_KERNELS)} kernels x {len(VALIDATION_SIZES)} "
             f"bindings; sweep reps = {reps}, distinct bindings per rep "
             f"(every request misses the result cache)")
    return rows, notes, {**accuracy, **timing}


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-CALIB",
        "Auto-calibration fidelity and width-sweep amortisation",
        ["measure", "value", "ratio", "detail"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_CALIB.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def _check_floors(report):
    failures = []
    if report["prediction_rel_error_mean"] > 0.05:
        failures.append(
            f"mean prediction error "
            f"{report['prediction_rel_error_mean'] * 100:.2f}% > 5%")
    if report["sweep_ratio"] > 3.0:
        failures.append(
            f"{report['widths']}-width sweep is "
            f"{report['sweep_ratio']:.2f}x a single predict (> 3x)")
    return failures


def test_calibration_faithful_and_sweep_amortised(benchmark):
    rows, notes, report = benchmark.pedantic(
        lambda: _calib_rows(reps=60), rounds=1, iterations=1,
    )
    _emit(rows, notes, report, quick=False)
    assert not _check_floors(report), report


def main(argv=None):
    """Standalone entry for the CI calib-smoke gate."""
    import argparse

    parser = argparse.ArgumentParser(description="E-CALIB gate")
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing reps; the floors stay the same")
    args = parser.parse_args(argv)
    rows, notes, report = _calib_rows(reps=20 if args.quick else 60)
    out = _emit(rows, notes, report, quick=args.quick)
    failures = _check_floors(report)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"calib ok: {report['prediction_rel_error_mean'] * 100:.2f}% "
          f"mean prediction error, {report['widths']}-width sweep at "
          f"{report['sweep_ratio']:.2f}x a single predict ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
