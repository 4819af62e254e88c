"""Differential tests: calibrated machines across placement kernels.

A calibrated cost table must be a drop-in machine: both placement
kernels (legacy, fused) must produce *bit-identical* placements for
it, and swapping a recalibrated table under the same machine name
must invalidate -- not corrupt -- the placement memo and the service
result cache.
"""

import pytest

from repro.calib import (
    SimulatorOracle,
    calibrate_machine,
    register_calibrated,
    result_to_payload,
)
from repro.cost import (
    place_stream,
    reset_placement_cache,
    set_placement_kernel,
)
from repro.machine import power_machine
from repro.machine.registry import _FACTORIES
from repro.translate.stream import Instr, InstrStream

FOCUS = 64


def setup_function(_):
    reset_placement_cache()


@pytest.fixture(scope="module")
def calibrated():
    machine = power_machine()
    return calibrate_machine(machine, SimulatorOracle(machine),
                             name="power-diff-test").machine


def _streams(machine):
    """A few structurally different streams over the calibrated table."""
    ops = [n for n in machine.table.names()
           if machine.atomic(n).result_latency > 0]
    serial = [
        Instr(index=i, atomic=ops[i % len(ops)],
              deps=(i - 1,) if i else (), tag=f"s{i}")
        for i in range(24)
    ]
    burst = [
        Instr(index=i, atomic="fpu_arith", deps=(), tag=f"b{i}")
        for i in range(16)
    ]
    diamond = [
        Instr(index=0, atomic="lsu_load", deps=(), tag="d0"),
        Instr(index=1, atomic="fpu_arith", deps=(0,), tag="d1"),
        Instr(index=2, atomic="fxu_add", deps=(0,), tag="d2"),
        Instr(index=3, atomic="fpu_store", deps=(1, 2), tag="d3"),
    ]
    return [InstrStream(serial), InstrStream(burst), InstrStream(diamond)]


def _snapshot(placed):
    block = placed.block
    return (placed.cycles, block.lo, block.occupied_hi, block.completion,
            tuple(sorted(block.bin_profiles.items(), key=lambda kv: str(kv))),
            tuple(sorted(block.bin_occupancy.items(), key=lambda kv: str(kv))))


def test_kernels_bit_identical_on_calibrated_machine(calibrated):
    streams = _streams(calibrated)
    results = {}
    for kernel in ("legacy", "fused"):
        previous = set_placement_kernel(kernel)
        try:
            reset_placement_cache()
            results[kernel] = [
                _snapshot(place_stream(calibrated, stream, FOCUS))
                for stream in streams
            ]
        finally:
            set_placement_kernel(previous)
    assert results["legacy"] == results["fused"]


def test_placement_memo_safe_across_recalibration(calibrated):
    """Same stream, different table: the memo must not serve stale."""
    base = power_machine()
    stream = _streams(base)[0]
    before = place_stream(base, stream, FOCUS).cycles
    # The calibrated fixture machine is a self-calibration fixpoint, so
    # build a genuinely different table: double fpu_arith.
    import dataclasses

    from repro.machine import AtomicCostTable, AtomicOp, UnitCost

    table = AtomicCostTable()
    for name in base.table.names():
        op = base.atomic(name)
        if name == "fpu_arith":
            primary = op.costs[0]
            table.define(AtomicOp(name, (UnitCost(
                primary.unit, primary.noncoverable * 2,
                primary.coverable * 2),), op.description))
        else:
            table.define(op)
    slower = dataclasses.replace(base, table=table)
    assert slower.fingerprint() != base.fingerprint()
    after = place_stream(slower, stream, FOCUS).cycles
    assert after > before
    # And the original keys still hit correctly.
    assert place_stream(base, stream, FOCUS).cycles == before


def test_result_cache_invalidated_by_fingerprint_swap(calibrated):
    """Recalibrating under the same name must stop old cache entries."""
    from repro.service.engine import PredictionEngine

    SRC = ("program t\n  integer n, i\n  real a, x(n), y(n)\n"
           "  do i = 1, n\n    y(i) = a * x(i) + y(i)\n  end do\nend\n")
    payload = result_to_payload(
        calibrate_machine(power_machine(), SimulatorOracle(power_machine()),
                          name="power-recal"))
    name = register_calibrated(payload)
    try:
        engine = PredictionEngine(workers=0, cache_size=32)
        first = engine.handle("predict", {"source": SRC, "machine": name})
        assert "error" not in first
        again = engine.handle("predict", {"source": SRC, "machine": name})
        assert again["cached"] is True

        # Retrain: fpu ops get slower, same machine name.
        retrained = dict(payload)
        retrained["table"] = {
            op: ({**spec, "costs": [
                {**c, "noncoverable": c["noncoverable"] + 2}
                for c in spec["costs"]
            ]} if op.startswith("fpu") else spec)
            for op, spec in payload["table"].items()
        }
        register_calibrated(retrained)
        fresh = engine.handle("predict", {"source": SRC, "machine": name})
        assert fresh["cached"] is False
        assert fresh["cost"] != first["cost"]
    finally:
        _FACTORIES.pop(name, None)
