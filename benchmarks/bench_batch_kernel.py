"""E-BATCHKERNEL -- batch placement vs per-stream columnar.

A beam round hands the cost model dozens of sibling candidates whose
straight-line streams share long prefixes (a transformation touches one
loop; everything before it re-translates identically).  The per-stream
fused kernel re-drops every shared prefix from scratch;
:func:`repro.cost.arena.place_batch` sorts the batch into
prefix-adjacency and forks each stream from a bin-state snapshot of its
neighbour's shared prefix.  This bench answers two questions:

* is it *correct*: a differential oracle pushes randomized sibling
  batches on every preset machine through ``place_batch`` and the
  legacy ``BinSet.place`` loop and compares cycles, per-op
  times/completions, and block summaries;
* is it *fast*: a 64-candidate beam-round batch (~200-instruction
  streams, ~150 shared prefix), timed as ``place_batch`` vs one
  per-stream fused ``_place_uncached`` pass.  Target: >= 1.3x.

Compilation and digests are precomputed for both sides and the memo is
disabled, so the timed region is placement work only -- the speedup is
prefix sharing within the batch, not cache hits.  ``place_batch`` keeps
no state across calls, so every timed rep places a fresh batch, exactly
as a real caller does.  Besides ``E-BATCHKERNEL.txt`` this writes
``benchmarks/results/BENCH_BATCHKERNEL.json``, which the
``batch-kernel-perf`` CI job gates on.
"""

import json
import random
import time

from repro.cost import (
    place_batch,
    reset_placement_cache,
)
from repro.cost.columnar import compile_stream
from repro.cost.placement import _place_uncached
from repro.machine.alpha import alpha_machine
from repro.machine.power import power_machine
from repro.machine.scalar import scalar_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr

from _report import RESULTS_DIR, emit_table

FOCUS_SPAN = 64
MACHINES = (power_machine, wide_machine, scalar_machine, alpha_machine)

#: The headline configuration: one beam round's worth of siblings.
CANDIDATES = 64
STREAM_SIZE = 200
PREFIX_LEN = 150

#: Minimum batch-over-per-stream speedup on the headline batch.
SPEEDUP_FLOOR = 1.3


def _placeable_ops(machine):
    return [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]


def _rand_stream(rng, names, n, prefix=None):
    instrs = list(prefix or [])
    for i in range(len(instrs), n):
        instrs.append(Instr(
            i, rng.choice(names),
            deps=tuple(sorted(rng.sample(range(i),
                                         k=min(i, rng.randint(0, 3))))),
            one_time=rng.random() < 0.1))
    return instrs


def _sibling_batch(rng, names, candidates, size, prefix_len):
    """One beam round: distinct candidates forking off a shared prefix."""
    prefix = _rand_stream(rng, names, prefix_len)
    return [_rand_stream(rng, names, size, prefix=prefix)
            for _ in range(candidates)]


def _differential(trials, seed=20260808):
    """Batches vs the legacy oracle on every machine; mismatches raise."""
    rng = random.Random(seed)
    machines = [factory() for factory in MACHINES]
    per_machine = max(1, trials // len(machines))
    checked = 0
    for machine in machines:
        names = _placeable_ops(machine)
        for _ in range(per_machine):
            batch = _sibling_batch(
                rng, names,
                candidates=rng.randint(2, 8),
                size=rng.randint(8, 48),
                prefix_len=rng.randint(0, 32))
            # A couple of exact duplicates exercise the dedup lane.
            batch.extend(rng.sample(batch, k=min(2, len(batch))))
            focus = rng.choice([2, 8, 64])
            results = place_batch(machine, batch, focus, use_memo=False)
            for instrs, placed in zip(batch, results):
                legacy = _place_uncached(
                    machine, instrs, focus, None, "legacy")
                assert placed.cycles == legacy.cycles, machine.name
                assert [(o.time, o.completion) for o in placed.ops] \
                    == [(o.time, o.completion) for o in legacy.ops], \
                    machine.name
                assert placed.block == legacy.block, machine.name
                checked += 1
    return checked


def _throughput(candidates, size, prefix_len, reps, seed=7, rounds=3):
    """``(baseline s, batch s)`` for ``reps`` passes over one batch.

    Streams are compiled (and digested) up front so both sides time
    pure placement.  ``place_batch`` runs with ``use_memo=False``, so
    its advantage comes from within-batch prefix sharing alone.  Rounds
    interleave baseline and batch so scheduler noise hits both; the
    min is the honest figure.
    """
    machine = power_machine()
    rng = random.Random(seed)
    batch = _sibling_batch(rng, _placeable_ops(machine), candidates, size,
                           prefix_len)
    reset_placement_cache()
    compiled = [compile_stream(machine, instrs) for instrs in batch]

    def run_baseline():
        for stream in compiled:
            _place_uncached(machine, stream.instrs, FOCUS_SPAN, None,
                            "fused", stream, stream.digest)

    def run_batch():
        place_batch(machine, compiled, FOCUS_SPAN, use_memo=False)

    run_baseline()                      # warm compiled-op interning
    wall = {"baseline": None, "batch": None}
    for _ in range(rounds):
        for label, fn in (("baseline", run_baseline), ("batch", run_batch)):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            elapsed = time.perf_counter() - t0
            if wall[label] is None or elapsed < wall[label]:
                wall[label] = elapsed
    return wall["baseline"], wall["batch"]


def _batch_rows(trials, reps):
    checked = _differential(trials)
    base_s, batch_s = _throughput(CANDIDATES, STREAM_SIZE, PREFIX_LEN, reps)
    ops = CANDIDATES * STREAM_SIZE * reps
    speedup = base_s / batch_s
    rows = [(f"{base_s:.3f}s", f"{batch_s:.3f}s", f"{ops / base_s:,.0f}",
             f"{ops / batch_s:,.0f}", f"{speedup:.2f}x")]
    report = {"differential_trials": checked,
              "speedup": speedup,
              "candidates": CANDIDATES, "stream_size": STREAM_SIZE,
              "prefix_len": PREFIX_LEN,
              "baseline_seconds": base_s,
              "batch_seconds": batch_s,
              "baseline_ops_per_s": ops / base_s,
              "batch_ops_per_s": ops / batch_s}
    notes = (f"{CANDIDATES}-candidate beam-round batch, "
             f"{STREAM_SIZE}-instruction streams, {PREFIX_LEN} shared "
             f"prefix, a fresh batch every rep; baseline = per-stream fused "
             f"kernel; differential oracle: {checked} placements across "
             f"{len(MACHINES)} machines; focus span {FOCUS_SPAN}")
    return rows, notes, report


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-BATCHKERNEL",
        "Batch placement vs per-stream columnar kernel",
        ["per-stream", "batch", "per-stream ops/s", "batch ops/s",
         "speedup"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_BATCHKERNEL.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def _check_floor(report):
    if report["speedup"] < SPEEDUP_FLOOR:
        return f"{report['speedup']:.2f}x < {SPEEDUP_FLOOR}x"
    return None


def test_batch_matches_and_beats_per_stream(benchmark):
    rows, notes, report = benchmark.pedantic(
        lambda: _batch_rows(trials=240, reps=8),
        rounds=1, iterations=1,
    )
    _emit(rows, notes, report, quick=False)
    assert report["differential_trials"] >= 200
    assert not _check_floor(report), report


def main(argv=None):
    """Standalone entry for the CI batch-kernel-perf gate."""
    import argparse

    parser = argparse.ArgumentParser(description="E-BATCHKERNEL gate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller differential and fewer reps; the "
                             "speedup floor stays the same")
    args = parser.parse_args(argv)
    if args.quick:
        rows, notes, report = _batch_rows(trials=80, reps=3)
    else:
        rows, notes, report = _batch_rows(trials=240, reps=8)
    out = _emit(rows, notes, report, quick=args.quick)
    failure = _check_floor(report)
    if failure:
        print(f"FAIL: {failure}")
        return 1
    print(f"batch kernel ok: {report['differential_trials']} differential "
          f"placements, {report['speedup']:.2f}x on a fresh "
          f"{CANDIDATES}x{STREAM_SIZE} batch ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
