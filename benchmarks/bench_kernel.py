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

A ladder row does the same for repeated dropping
(:func:`repro.cost.place_copies`): random bodies, with one-time ops,
on every machine through both kernels, each x2/x4/x8 summary compared
field by field with the placement of the explicitly replicated body;
then the x4 + x8 pair a loop's steady state needs is timed both ways,
as a replica per factor and as one ladder of drops.

Besides the usual ``E-KERNEL.txt`` table this writes
``benchmarks/results/BENCH_KERNEL.json`` (machine-readable: speedups
and ops/s per size), which the ``kernel-perf`` CI job gates on.
"""

import json
import pathlib
import random
import time

from repro.cost import BinSet, reset_placement_cache
from repro.cost.estimator import UNROLL_LADDER
from repro.cost.placement import _drop_stream, _place_uncached
from repro.machine.alpha import alpha_machine
from repro.machine.power import power_machine
from repro.machine.scalar import scalar_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr, placement_digest, reindex

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
    it does on every placement-memo miss.  ``_drop_stream`` is exactly
    a memo miss's work: no per-op tuple is built.  Each kernel's wall
    time is the best of ``rounds`` to shed scheduler noise.
    """
    from repro.translate.stream import placement_digest

    machine = power_machine()
    rng = random.Random(seed)
    instrs = _rand_stream(rng, _placeable_ops(machine), size)
    digest = placement_digest(instrs)
    reset_placement_cache()
    for kernel in ("legacy", "fused"):  # warm compilation + memos
        _drop_stream(machine, instrs, FOCUS_SPAN, BinSet(machine), kernel,
                     None, digest)
    wall = {"legacy": None, "fused": None}
    # Rounds interleave the kernels so CPU frequency drift and noisy
    # neighbours hit both equally; the min is the honest figure.
    for _ in range(rounds):
        for kernel in ("legacy", "fused"):
            t0 = time.perf_counter()
            for _ in range(reps):
                _drop_stream(machine, instrs, FOCUS_SPAN, BinSet(machine),
                             kernel, None, digest)
            elapsed = time.perf_counter() - t0
            if wall[kernel] is None or elapsed < wall[kernel]:
                wall[kernel] = elapsed
    return wall["legacy"], wall["fused"]


def _replicated(iterative, factor):
    """``factor`` copies of a re-indexed body, each re-indexed past the last."""
    out = []
    for copy in range(factor):
        base = copy * len(iterative)
        out.extend(Instr(base + i.index, i.atomic,
                         tuple(base + d for d in i.deps)) for i in iterative)
    return out


def _ladder_differential(trials, seed=20261019):
    """(trials, mismatches): ladder summaries vs replicated placements."""
    rng = random.Random(seed)
    machines = [factory() for factory in MACHINES]
    mismatches = checked = 0
    for trial in range(trials):
        machine = machines[trial % len(machines)]
        body = _rand_stream(rng, _placeable_ops(machine), rng.randint(1, 24))
        iterative = reindex([i for i in body if not i.one_time])
        focus = rng.choice([2, 8, 64])
        kernel = ("fused", "legacy")[trial // len(machines) % 2]
        _, _, ladder = _drop_stream(machine, iterative, focus,
                                    BinSet(machine), kernel, None, None,
                                    UNROLL_LADDER)
        for factor, got in zip(UNROLL_LADDER, ladder):
            want = _place_uncached(machine, _replicated(iterative, factor),
                                   focus, None, kernel).block
            mismatches += got != want
        checked += 1
    return checked, mismatches


def _ladder_throughput(size, reps, seed=11, rounds=3):
    """(replicated s, ladder s, body ops) for ``reps`` x4 + x8 pairs.

    Both sides start from the x1 body's iterative part and do what a
    placement-memo miss did before and does now: build, hash and place
    a x4 and a x8 replica, or hash the body once and drop it eight
    times into one set of bins, reading x2, x4 and x8.  Best of
    ``rounds``, interleaved.
    """
    machine = power_machine()
    rng = random.Random(seed)
    body = _rand_stream(rng, _placeable_ops(machine), size)
    iterative = reindex([i for i in body if not i.one_time])

    def replicated():
        for factor in (4, 8):
            stream = _replicated(iterative, factor)
            _drop_stream(machine, stream, FOCUS_SPAN, BinSet(machine),
                         "fused", None, placement_digest(stream))

    def ladder():
        _drop_stream(machine, iterative, FOCUS_SPAN, BinSet(machine),
                     "fused", None, placement_digest(iterative),
                     UNROLL_LADDER)

    wall = {replicated: None, ladder: None}
    for run in (replicated, ladder):     # warm compilation
        run()
    for _ in range(rounds):
        for run in (replicated, ladder):
            t0 = time.perf_counter()
            for _ in range(reps):
                run()
            elapsed = time.perf_counter() - t0
            if wall[run] is None or elapsed < wall[run]:
                wall[run] = elapsed
    return wall[replicated], wall[ladder], len(iterative)


def _ladder_row(trials, size, reps, report):
    checked, mismatches = _ladder_differential(trials)
    replicated_s, ladder_s, n = _ladder_throughput(size, reps)
    speedup = replicated_s / ladder_s
    report.update(ladder_trials=checked, ladder_mismatches=mismatches,
                  ladder_body_size=size, ladder_replicated_seconds=replicated_s,
                  ladder_seconds=ladder_s, ladder_speedup=speedup)
    return (f"ladder x4+x8 of {n}", f"{replicated_s:.3f}s",
            f"{ladder_s:.3f}s", f"{12 * n * reps / replicated_s:,.0f}",
            f"{8 * n * reps / ladder_s:,.0f}", f"{speedup:.2f}x")


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
    rows.append(_ladder_row(trials, 32, reps * 2, report))
    notes = (f"before/after: legacy/fused kernel; for the ladder row, "
             f"a x4 and a x8 replica built, hashed and placed (12n ops) / "
             f"one body hashed and dropped 8 times, read at x2/x4/x8 "
             f"(8n ops).  Differential oracles: {checked} randomized "
             f"streams across {len(MACHINES)} machines, bin grids "
             f"included; {report['ladder_trials']} random bodies with "
             f"one-time ops, both kernels, every ladder summary vs the "
             f"replicated placement: {report['ladder_mismatches']} "
             f"mismatches.  Focus span {FOCUS_SPAN}")
    return rows, notes, report


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-KERNEL",
        "Fused columnar placement kernel vs legacy BinSet.place; "
        "repeated-dropping ladder vs replicated bodies",
        ["stream", "before", "after", "before ops/s", "after ops/s",
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
    assert report["ladder_mismatches"] == 0, report
    assert report["ladder_speedup"] >= 1.0, report


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
    if report["ladder_mismatches"] or report["ladder_speedup"] < 1.0:
        print(f"FAIL: ladder {report['ladder_mismatches']} mismatches, "
              f"{report['ladder_speedup']:.2f}x vs replicated placement")
        return 1
    print(f"kernel ok: {report['differential_trials']} differential trials, "
          f"{report['speedup_large']:.2f}x on "
          f"{report['sizes'][-1]['stream_size']}-instruction streams; "
          f"ladder {report['ladder_trials']} trials, "
          f"{report['ladder_speedup']:.2f}x ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
