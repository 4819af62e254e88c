"""E-KERNEL -- the fused columnar placement kernel vs the legacy drop.

Placement is the innermost loop of every prediction (section 2.1); the
fused kernel (``repro.cost.columnar``) precompiles the machine's op
costs and the stream's columns, then walks all required pipes in
lockstep.  This bench answers two questions:

* is it *correct*: a differential oracle places randomized streams on
  every preset machine through both kernels and compares cycles,
  per-op times/completions, block summaries, and the full bin grids;
* is it *fast*: a throughput sweep over stream sizes, asserting the
  target speedup (>= 3x on 200+-instruction streams) in full mode and
  fused >= legacy in ``--quick`` (CI) mode.

Besides the usual ``E-KERNEL.txt`` table this writes
``benchmarks/results/BENCH_KERNEL.json`` (machine-readable: speedups
and ops/s per size), which the ``kernel-perf`` CI job gates on.
"""

import json
import pathlib
import random
import time

from repro.cost import BinSet, reset_placement_cache
from repro.cost.placement import _place_uncached
from repro.machine.alpha import alpha_machine
from repro.machine.power import power_machine
from repro.machine.scalar import scalar_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr

from _report import RESULTS_DIR, emit_table

FOCUS_SPAN = 64
MACHINES = (power_machine, wide_machine, scalar_machine, alpha_machine)


def _placeable_ops(machine):
    return [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]


def _rand_stream(rng, names, n):
    return [
        Instr(i, rng.choice(names),
              deps=tuple(sorted(rng.sample(range(i),
                                           k=min(i, rng.randint(0, 3))))),
              one_time=rng.random() < 0.1)
        for i in range(n)
    ]


def _differential(trials, seed=20240806):
    """Place random streams through both kernels; any mismatch raises."""
    rng = random.Random(seed)
    machines = [factory() for factory in MACHINES]
    per_machine = trials // len(machines)
    checked = 0
    for machine in machines:
        names = _placeable_ops(machine)
        for _ in range(per_machine):
            instrs = _rand_stream(rng, names, rng.randint(1, 64))
            focus = rng.choice([2, 8, 64])
            legacy_bins = BinSet(machine)
            fused_bins = BinSet(machine)
            legacy = _place_uncached(
                machine, instrs, focus, legacy_bins, "legacy")
            fused = _place_uncached(
                machine, instrs, focus, fused_bins, "fused")
            assert fused.cycles == legacy.cycles, (machine.name, len(instrs))
            assert [(o.time, o.completion) for o in fused.ops] == \
                   [(o.time, o.completion) for o in legacy.ops], machine.name
            assert fused.block == legacy.block, machine.name
            for bin_id, arr in fused_bins.arrays.items():
                assert arr.as_bools() == \
                    legacy_bins.arrays[bin_id].as_bools(), (machine.name, bin_id)
            assert fused_bins._top == legacy_bins._top
            checked += 1
    return checked


def _throughput(size, reps, seed=7, rounds=3):
    """(legacy s, fused s) for ``reps`` placements of one ``size`` stream.

    ``place_stream`` hashes the stream once for its memo key before
    either kernel runs, so the digest is precomputed here too -- the
    timed region is placement work only, for both kernels.  For the
    fused kernel that includes lowering the stream to columns, which
    it does on every placement-memo miss.  Each kernel's wall time is
    the best of ``rounds`` to shed scheduler noise.
    """
    from repro.translate.stream import placement_digest

    machine = power_machine()
    rng = random.Random(seed)
    instrs = _rand_stream(rng, _placeable_ops(machine), size)
    digest = placement_digest(instrs)
    reset_placement_cache()
    for kernel in ("legacy", "fused"):  # warm compilation + memos
        _place_uncached(machine, instrs, FOCUS_SPAN, None, kernel,
                        None, digest)
    wall = {"legacy": None, "fused": None}
    # Rounds interleave the kernels so CPU frequency drift and noisy
    # neighbours hit both equally; the min is the honest figure.
    for _ in range(rounds):
        for kernel in ("legacy", "fused"):
            t0 = time.perf_counter()
            for _ in range(reps):
                _place_uncached(machine, instrs, FOCUS_SPAN, None, kernel,
                                None, digest)
            elapsed = time.perf_counter() - t0
            if wall[kernel] is None or elapsed < wall[kernel]:
                wall[kernel] = elapsed
    return wall["legacy"], wall["fused"]


def _kernel_rows(trials, sizes, reps):
    checked = _differential(trials)
    rows = []
    report = {"differential_trials": checked, "sizes": []}
    for size in sizes:
        legacy_s, fused_s = _throughput(size, reps)
        ops = size * reps
        speedup = legacy_s / fused_s
        rows.append((
            size, f"{legacy_s:.3f}s", f"{fused_s:.3f}s",
            f"{ops / legacy_s:,.0f}", f"{ops / fused_s:,.0f}",
            f"{speedup:.2f}x",
        ))
        report["sizes"].append({
            "stream_size": size,
            "legacy_seconds": legacy_s,
            "fused_seconds": fused_s,
            "legacy_ops_per_s": ops / legacy_s,
            "fused_ops_per_s": ops / fused_s,
            "speedup": speedup,
        })
    report["speedup_large"] = report["sizes"][-1]["speedup"]
    notes = (f"differential oracle: {checked} randomized streams across "
             f"{len(MACHINES)} machines, bin grids included; "
             f"focus span {FOCUS_SPAN}")
    return rows, notes, report


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-KERNEL",
        "Fused columnar placement kernel vs legacy BinSet.place",
        ["stream", "legacy", "fused", "legacy ops/s", "fused ops/s",
         "speedup"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_KERNEL.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def test_fused_kernel_matches_and_beats_legacy(benchmark):
    rows, notes, report = benchmark.pedantic(
        lambda: _kernel_rows(trials=1200, sizes=(64, 256), reps=120),
        rounds=1, iterations=1,
    )
    _emit(rows, notes, report, quick=False)
    assert report["differential_trials"] >= 1000
    # The tentpole target: >= 3x on 200+-instruction streams.
    assert report["speedup_large"] >= 3.0, report


def main(argv=None):
    """Standalone entry for the CI kernel-perf gate: no pytest needed."""
    import argparse

    parser = argparse.ArgumentParser(description="E-KERNEL gate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller differential + one sweep size "
                             "(CI gate: asserts fused is not slower)")
    args = parser.parse_args(argv)
    if args.quick:
        rows, notes, report = _kernel_rows(
            trials=200, sizes=(256,), reps=40)
    else:
        rows, notes, report = _kernel_rows(
            trials=1200, sizes=(64, 256), reps=120)
    out = _emit(rows, notes, report, quick=args.quick)
    floor = 1.0 if args.quick else 3.0
    if report["speedup_large"] < floor:
        print(f"FAIL: fused speedup {report['speedup_large']:.2f}x "
              f"below the {floor:.1f}x floor")
        return 1
    print(f"kernel ok: {report['differential_trials']} differential trials, "
          f"{report['speedup_large']:.2f}x on "
          f"{report['sizes'][-1]['stream_size']}-instruction streams "
          f"({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
