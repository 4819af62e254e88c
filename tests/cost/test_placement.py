"""Tests for bin placement and the paper's worked examples."""

import pytest

from repro.cost import BinSet, place_stream
from repro.machine import UnitKind, get_machine, power_machine
from repro.translate.stream import Instr, InstrStream


def _power():
    return power_machine()


def test_single_fadd_costs_two_cycles():
    """Paper: one cycle noncoverable + one coverable; alone, it costs 2."""
    machine = _power()
    placed = place_stream(machine, [Instr(0, "fpu_arith")])
    assert placed.cycles == 2


def test_two_independent_fadds_pipeline():
    """Two independent FP adds issue back to back: 3 cycles total."""
    machine = _power()
    placed = place_stream(machine, [
        Instr(0, "fpu_arith"),
        Instr(1, "fpu_arith"),
    ], bins=BinSet(machine))
    assert placed.ops[0].time == 0
    assert placed.ops[1].time == 1
    assert placed.cycles == 3


def test_dependent_fadds_serialize():
    """A dependent FP add waits out the coverable cycle: starts at t=2."""
    machine = _power()
    placed = place_stream(machine, [
        Instr(0, "fpu_arith"),
        Instr(1, "fpu_arith", deps=(0,)),
    ], bins=BinSet(machine))
    assert placed.ops[1].time == 2
    assert placed.cycles == 4


def test_chain_of_n_dependent_fadds():
    machine = _power()
    n = 6
    instrs = [Instr(i, "fpu_arith", deps=(i - 1,) if i else ()) for i in range(n)]
    placed = place_stream(machine, instrs)
    assert placed.cycles == 2 * n


def test_independent_fadds_throughput():
    """k independent fadds: k issue slots + 1 trailing coverable cycle."""
    machine = _power()
    k = 10
    instrs = [Instr(i, "fpu_arith") for i in range(k)]
    placed = place_stream(machine, instrs)
    assert placed.cycles == k + 1


def test_load_and_fadd_overlap_across_units():
    """A load (LSU) and an independent fadd (FPU) share time slots."""
    machine = _power()
    placed = place_stream(machine, [
        Instr(0, "lsu_load"),
        Instr(1, "fpu_arith"),
    ], bins=BinSet(machine))
    assert placed.ops[0].time == 0
    assert placed.ops[1].time == 0
    assert placed.cycles == 2


def test_store_occupies_fpu_and_fxu():
    """Paper: FP store = FPU 2 cycles (1 coverable) + FXU 1 cycle."""
    machine = _power()
    bins = BinSet(machine)
    placed = place_stream(machine, [Instr(0, "fpu_store")], bins=bins)
    assert bins.arrays[(UnitKind.FPU, 0)].filled_total == 1
    assert bins.arrays[(UnitKind.FXU, 0)].filled_total == 1
    assert placed.cycles == 2


def test_multi_unit_simultaneous_fit():
    """An op needing FPU+FXU at the same slot must skip a busy slot."""
    machine = _power()
    placed = place_stream(machine, [
        Instr(0, "fxu_add"),     # occupies FXU slot 0
        Instr(1, "fpu_store"),   # needs FPU and FXU at the same t -> t=1
    ], bins=BinSet(machine))
    assert placed.ops[1].time == 1


def test_figure3_fma_loop_body():
    """The paper's Figure 3 body: c(1) = c(1) + a(1) * b(1).

    load a, load b, load c, fma(dep loads), store c(dep fma), branch.
    Loads pipeline through the single LSU; the FMA waits on its inputs;
    the branch hides in the Branch unit.
    """
    machine = _power()
    instrs = [
        Instr(0, "lsu_load", tag="load a(1)"),
        Instr(1, "lsu_load", tag="load b(1)"),
        Instr(2, "lsu_load", tag="load c(1)"),
        Instr(3, "fpu_arith", deps=(0, 1, 2), tag="fma"),
        Instr(4, "fpu_store", deps=(3,), tag="store c(1)"),
        Instr(5, "branch", tag="loop branch"),
    ]
    placed = place_stream(machine, instrs, bins=BinSet(machine))
    times = {i.instr.tag: i.time for i in placed.ops}
    assert times["load a(1)"] == 0
    assert times["load b(1)"] == 1
    assert times["load c(1)"] == 2
    # last load result at 4; fma at 4, result at 6; store at 6.
    assert times["fma"] == 4
    assert times["store c(1)"] == 6
    # The branch drops to slot 0 of the branch unit: fully covered.
    assert times["loop branch"] == 0
    assert placed.cycles == 8


def test_sixteen_independent_fmas():
    """Matmul's 4x4-unrolled block: 16 FMAs stream at 1/cycle."""
    machine = _power()
    instrs = [Instr(i, "fpu_arith", tag=f"fma{i}") for i in range(16)]
    placed = place_stream(machine, instrs)
    assert placed.cycles == 17


def test_wide_machine_doubles_fma_throughput():
    machine = get_machine("wide")
    instrs = [Instr(i, "fpu_arith") for i in range(16)]
    placed = place_stream(machine, instrs)
    assert placed.cycles == 8 + 1


def test_scalar_machine_serializes_everything():
    machine = get_machine("scalar")
    instrs = [
        Instr(0, "alu_load"),
        Instr(1, "alu_load"),
        Instr(2, "alu_fadd", deps=(0, 1)),
    ]
    placed = place_stream(machine, instrs)
    # 2 + 2 blocking loads, then the fadd: no overlap at all.
    assert placed.cycles == 6


def test_focus_span_limits_backfill():
    """A deep early hole is invisible once the top has moved far past it."""
    machine = _power()
    instrs = (
        # A long FXU chain raises the top while leaving the FPU empty
        # at the bottom.
        [Instr(i, "fxu_mul5", deps=(i - 1,) if i else ()) for i in range(8)]
        + [Instr(8, "fpu_arith")]
    )
    wide = place_stream(machine, instrs, focus_span=1 << 20,
                        bins=BinSet(machine))
    narrow = place_stream(machine, instrs, focus_span=4, bins=BinSet(machine))
    fpu_wide = wide.ops[8].time
    fpu_narrow = narrow.ops[8].time
    assert fpu_wide == 0                      # backfills to the bottom
    assert fpu_narrow >= 40 - 4               # held within the span window
    assert narrow.cycles >= wide.cycles


def test_focus_span_validation():
    machine = _power()
    with pytest.raises(ValueError):
        place_stream(machine, [], focus_span=0)


def test_empty_stream():
    machine = _power()
    placed = place_stream(machine, [])
    assert placed.cycles == 0
    assert placed.block.is_empty


def test_stream_object_accepted():
    machine = _power()
    stream = InstrStream(machine_name="power", label="t")
    stream.append("fpu_arith")
    stream.append("fpu_arith", deps=(0,))
    placed = place_stream(machine, stream)
    assert placed.cycles == 4


def test_binset_render():
    machine = _power()
    bins = BinSet(machine)
    place_stream(machine, [Instr(0, "lsu_load"), Instr(1, "fxu_add")], bins=bins)
    art = bins.render()
    assert "fxu" in art and "lsu" in art and "#" in art
