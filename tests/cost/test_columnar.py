"""The fused columnar kernel: compilation, lowering, and equivalence."""

import random

import pytest

from repro.cost import (
    BinSet,
    compile_stream,
    place_stream,
    placement_kernel,
    reset_placement_cache,
    set_placement_kernel,
)
from repro.cost.columnar import CompiledStream, drop_columns
from repro.cost.placement import _place_uncached
from repro.machine import compile_ops, power_machine, reset_compiled_ops
from repro.machine.alpha import alpha_machine
from repro.machine.scalar import scalar_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr, InstrStream


def setup_function(_):
    reset_placement_cache()


# ---------------------------------------------------------------------------
# Per-machine op compilation


def test_compiled_ops_mirror_the_cost_table():
    machine = power_machine()
    ops = compile_ops(machine)
    assert ops.fingerprint == machine.fingerprint()
    assert ops.names == tuple(machine.table.names())
    for name in ops.names:
        oid = ops.index_of[name]
        op = machine.table[name]
        assert ops.latency[oid] == op.result_latency
        comps = ops.components[oid]
        needed = [c for c in op.costs if c.noncoverable > 0]
        if comps is None:
            assert any(not machine.has_unit(c.unit) for c in needed)
        else:
            assert len(comps) == len(needed)
            for (slot, length), cost in zip(comps, needed):
                assert ops.kinds[slot] is cost.unit
                assert length == cost.noncoverable


def test_compiled_ops_are_memoized_by_fingerprint():
    reset_compiled_ops()
    first = compile_ops(power_machine())
    second = compile_ops(power_machine())
    assert second is first  # same fingerprint -> same compilation object


def test_pipes_follow_machine_order():
    machine = wide_machine()
    ops = compile_ops(machine)
    for slot, unit in enumerate(machine.units):
        assert ops.pipes[slot] == tuple(
            (unit.kind, i) for i in range(unit.count))


# ---------------------------------------------------------------------------
# Stream lowering


def test_lowered_columns_match_the_stream():
    machine = power_machine()
    instrs = [
        Instr(0, "fpu_arith"),
        Instr(1, "fxu_add", deps=(0,), one_time=True),
        Instr(2, "fpu_arith", deps=(0, 1)),
    ]
    stream = compile_stream(machine, instrs)
    ops = compile_ops(machine)
    assert len(stream) == 3
    assert list(stream.op_ids) == [
        ops.index_of["fpu_arith"], ops.index_of["fxu_add"],
        ops.index_of["fpu_arith"]]
    assert list(stream.one_time) == [0, 1, 0]
    assert list(stream.dep_ptr) == [0, 0, 1, 3]
    assert list(stream.deps) == [0, 0, 1]  # stream positions


def test_deps_resolve_to_latest_earlier_position():
    """Duplicate indices: a dep binds to the *latest* earlier producer."""
    machine = power_machine()
    instrs = [
        Instr(5, "fpu_arith"),
        Instr(5, "fpu_div"),        # shadows position 0 for index 5
        Instr(6, "fpu_arith", deps=(5,)),
    ]
    stream = compile_stream(machine, instrs)
    assert list(stream.deps) == [1]


def test_unresolvable_deps_are_dropped():
    """Legacy reads completions.get(dep, 0): unknown deps contribute 0."""
    machine = power_machine()
    instrs = [
        Instr(5, "fpu_arith"),
        Instr(7, "fpu_div", deps=(6,)),      # index 6 never appears
    ]
    stream = compile_stream(machine, instrs)
    assert list(stream.deps) == []
    legacy = _place_uncached(machine, instrs, 64, None, "legacy")
    fused = _place_uncached(machine, instrs, 64, None, "fused")
    assert [op.time for op in fused.ops] == [op.time for op in legacy.ops]


def test_place_stream_accepts_compiled_and_instr_streams():
    machine = power_machine()
    instrs = [Instr(0, "fpu_arith"), Instr(1, "fpu_arith", deps=(0,))]
    via_list = place_stream(machine, instrs)
    reset_placement_cache()
    via_compiled = place_stream(machine, compile_stream(machine, instrs))
    reset_placement_cache()
    stream = InstrStream()
    for i in instrs:
        stream.append(i.atomic, deps=i.deps)
    via_stream = place_stream(machine, stream)
    assert via_compiled.cycles == via_list.cycles == via_stream.cycles
    assert [op.time for op in via_compiled.ops] == [op.time for op in via_list.ops]


# ---------------------------------------------------------------------------
# Kernel equivalence and selection


def _bin_grids(bins):
    return {bin_id: arr.as_bools() for bin_id, arr in bins.arrays.items()}


@pytest.mark.parametrize("factory", [
    power_machine, wide_machine, scalar_machine, alpha_machine,
])
def test_fused_matches_legacy_bit_for_bit(factory):
    machine = factory()
    names = [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]
    rng = random.Random(42)
    for trial in range(40):
        n = rng.randint(1, 48)
        instrs = [
            Instr(i, rng.choice(names),
                  deps=tuple(rng.sample(range(i), k=min(i, rng.randint(0, 3)))))
            for i in range(n)
        ]
        focus = rng.choice([2, 8, 64])
        legacy_bins = BinSet(machine)
        fused_bins = BinSet(machine)
        legacy = _place_uncached(machine, instrs, focus, legacy_bins, "legacy")
        fused = _place_uncached(machine, instrs, focus, fused_bins, "fused")
        assert fused.cycles == legacy.cycles
        assert [(o.time, o.completion) for o in fused.ops] == \
               [(o.time, o.completion) for o in legacy.ops]
        assert fused.block == legacy.block
        assert _bin_grids(fused_bins) == _bin_grids(legacy_bins)
        assert fused_bins._top == legacy_bins._top


def test_missing_unit_raises_on_both_kernels():
    """An op whose noncoverable cost names an absent unit fails at
    placement time (not at compile time), matching the legacy path."""
    from repro.machine.atomic import AtomicCostTable, AtomicOp
    from repro.machine.machine import Machine
    from repro.machine.units import FunctionalUnit, UnitCost, UnitKind

    table = AtomicCostTable()
    table.define(AtomicOp("alu_op", (UnitCost(UnitKind.ALU, 1),)))
    table.define(AtomicOp("fp_op", (UnitCost(UnitKind.FPU, 2),)))
    machine = Machine("one-alu", (FunctionalUnit(UnitKind.ALU, 1),), table, {})
    ops = compile_ops(machine)
    assert ops.components[ops.index_of["fp_op"]] is None
    # The supported op still places fine...
    placed = _place_uncached(machine, [Instr(0, "alu_op")], 64, None, "fused")
    assert placed.ops[0].time == 0
    # ... and the unsupported one raises on both kernels.
    instrs = [Instr(0, "fp_op")]
    with pytest.raises(KeyError):
        _place_uncached(machine, instrs, 64, None, "legacy")
    with pytest.raises(KeyError):
        _place_uncached(machine, instrs, 64, None, "fused")


def test_kernel_selection_round_trip():
    previous = set_placement_kernel("legacy")
    try:
        assert placement_kernel() == "legacy"
        machine = power_machine()
        placed = place_stream(machine, [Instr(0, "fpu_arith")])
        assert placed.cycles == 2
    finally:
        set_placement_kernel(previous)
    with pytest.raises(ValueError):
        set_placement_kernel("vectorized")
    with pytest.raises(ValueError):
        place_stream(power_machine(), [Instr(0, "fpu_arith")],
                     kernel="vectorized")


def test_drop_columns_advances_the_running_top():
    machine = power_machine()
    bins = BinSet(machine)
    stream = compile_stream(machine, [Instr(i, "fpu_arith") for i in range(4)])
    times, completions = drop_columns(stream, compile_ops(machine), bins, 64)
    assert times == [0, 1, 2, 3]
    assert completions == [2, 3, 4, 5]
    assert bins.top() == bins._scan_top() == 4


def test_empty_stream_places_to_nothing():
    machine = power_machine()
    placed = place_stream(machine, [])
    assert placed.cycles == 0
    assert placed.ops == ()

# ---------------------------------------------------------------------------
# summary columns (the learned surrogate's feature basis)


def test_summary_aggregates_match_columns():
    machine = power_machine()
    instrs = [
        Instr(0, "fpu_arith"),
        Instr(1, "fxu_add", deps=(0,), one_time=True),
        Instr(2, "fpu_arith", deps=(0, 1)),
    ]
    stream = compile_stream(machine, instrs)
    ops = compile_ops(machine)
    summary = stream.summary
    assert summary.length == 3
    assert len(summary.op_counts) == len(ops.names)
    assert summary.op_counts[ops.index_of["fpu_arith"]] == 2
    assert summary.op_counts[ops.index_of["fxu_add"]] == 1
    assert sum(summary.op_counts) == 3
    assert summary.dep_edges == len(stream.deps) == 3
    # distances: 1->0 is 1, 2->0 is 2, 2->1 is 1
    assert summary.dep_dist_sum == 4
    assert summary.dep_dist_max == 2
    assert summary.one_time == 1
    assert summary.latency_sum == sum(
        ops.latency[oid] for oid in stream.op_ids)


def test_summary_of_empty_stream_is_zero():
    summary = compile_stream(power_machine(), []).summary
    assert summary.length == 0
    assert summary.dep_edges == 0
    assert summary.dep_dist_max == 0
    assert sum(summary.op_counts) == 0


def test_summary_is_kernel_independent():
    """The summary is built at lowering, before any placement kernel
    runs -- the same stream compiles to the same aggregates."""
    machine = power_machine()
    instrs = [Instr(i, "fpu_arith", deps=(i - 1,) if i else ())
              for i in range(8)]
    first = compile_stream(machine, instrs).summary
    second = compile_stream(machine, instrs).summary
    assert first == second
