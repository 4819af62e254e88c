"""Tests for the reference scheduler, spill insertion, and simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import insert_spills, list_schedule, simulate, simulate_loop
from repro.machine import get_machine, power_machine
from repro.translate.stream import Instr, InstrStream


def test_empty_schedule():
    schedule = list_schedule(power_machine(), [])
    assert schedule.cycles == 0 and schedule.instructions == 0


def test_dependences_respected():
    machine = power_machine()
    instrs = [
        Instr(0, "lsu_load"),
        Instr(1, "fpu_arith", deps=(0,)),
        Instr(2, "fpu_store", deps=(1,)),
    ]
    schedule = list_schedule(machine, instrs)
    assert schedule.issue_time[1] >= schedule.completion[0]
    assert schedule.issue_time[2] >= schedule.completion[1]


def test_dispatch_width_limits_issue():
    machine = power_machine()
    # Independent ops on different units could all go at cycle 0 with
    # enough width; width=1 forces one per cycle.
    instrs = [
        Instr(0, "fxu_add"),
        Instr(1, "fpu_arith"),
        Instr(2, "lsu_load"),
        Instr(3, "branch"),
    ]
    wide = list_schedule(machine, instrs, dispatch_width=4)
    narrow = list_schedule(machine, instrs, dispatch_width=1)
    assert min(wide.issue_time.values()) == 0
    assert len({t for t in wide.issue_time.values()}) == 1  # all at cycle 0
    assert sorted(narrow.issue_time.values()) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        list_schedule(machine, instrs, dispatch_width=0)


def test_unit_contention_serializes():
    machine = power_machine()
    # Two 3-cycle integer multiplies on the single FXU.
    instrs = [Instr(0, "fxu_mul3"), Instr(1, "fxu_mul3")]
    schedule = list_schedule(machine, instrs)
    times = sorted(schedule.issue_time.values())
    assert times[1] >= times[0] + 3


def test_critical_path_priority_helps():
    """The scheduler prefers the long chain over cheap independent ops."""
    machine = power_machine()
    # Chain of 3 dependent fadds + 3 independent fadds.
    instrs = (
        [Instr(0, "fpu_arith"),
         Instr(1, "fpu_arith", deps=(0,)),
         Instr(2, "fpu_arith", deps=(1,))]
        + [Instr(3 + i, "fpu_arith") for i in range(3)]
    )
    schedule = list_schedule(machine, instrs)
    # The chain head goes first; independents fill its coverable slots
    # (cycles 1, 3, 5).  The last filler issues at 5 and completes at 7.
    assert schedule.issue_time[0] == 0
    assert schedule.cycles == 7


def test_sixteen_fma_reference():
    res = simulate(power_machine(), [Instr(i, "fpu_arith") for i in range(16)])
    assert res.cycles == 17
    assert res.spill_stores == 0


def test_wide_machine_reference_speedup():
    instrs = [Instr(i, "fpu_arith") for i in range(16)]
    power = simulate(get_machine("power"), instrs)
    wide = simulate(get_machine("wide"), instrs)
    assert wide.cycles < power.cycles


def test_spill_insertion_on_wide_block():
    """A block with ~60 simultaneously-live values must spill on 32 regs."""
    machine = power_machine()
    stream = InstrStream(machine_name="power")
    n = 60
    for i in range(n):
        stream.append("lsu_load", tag=f"load v{i}")
    # One giant combine keeps everything live until the end.
    deps = tuple(range(n))
    stream.append("fpu_arith", deps, tag="combine")
    result = insert_spills(machine, stream)
    assert result.spill_stores > 0
    assert result.spill_loads > 0
    # Spilled stream still schedulable and longer than the naive one.
    res_spilled = simulate(machine, result.stream, with_spills=False)
    res_naive = simulate(machine, stream, with_spills=False)
    assert res_spilled.cycles >= res_naive.cycles


def test_no_spills_on_small_block():
    machine = power_machine()
    stream = InstrStream(machine_name="power")
    a = stream.append("lsu_load").index
    b = stream.append("lsu_load").index
    stream.append("fpu_arith", (a, b))
    result = insert_spills(machine, stream)
    assert result.spill_stores == 0 and result.spill_loads == 0
    assert len(result.stream) == 3


def test_simulate_loop_overlaps_iterations():
    machine = power_machine()
    stream = InstrStream(machine_name="power")
    load = stream.append("lsu_load").index
    fma = stream.append("fpu_arith", (load,)).index
    stream.append("fpu_store", (fma,))
    one_iter = simulate(machine, stream).cycles
    ten = simulate_loop(machine, stream, 10).cycles
    assert ten < 10 * one_iter  # pipelining across iterations
    assert ten >= 10            # at least the LSU occupancy


def test_simulate_loop_carried_recurrence_slower():
    machine = power_machine()
    stream = InstrStream(machine_name="power")
    load = stream.append("lsu_load").index
    stream.append("fpu_arith", (load,), tag="acc")
    free = simulate_loop(machine, stream, 12, carried_latency=0).cycles
    chained = simulate_loop(machine, stream, 12, carried_latency=2).cycles
    assert chained >= free
    with pytest.raises(ValueError):
        simulate_loop(machine, stream, 0)


@pytest.mark.parametrize("carried", [0, 2])
def test_simulate_loop_chains_last_instruction_of_each_copy(
        monkeypatch, carried):
    """The recurrence links copy k+1's last instruction to copy k's
    last instruction; chain heads gain no cross-iteration edge."""
    from repro.backend import simulator

    seen = []
    real = simulator.simulate
    monkeypatch.setattr(simulator, "simulate",
                        lambda machine, merged, width: seen.append(merged)
                        or real(machine, merged, width))
    machine = power_machine()
    stream = InstrStream(machine_name="power")
    load = stream.append("lsu_load").index
    stream.append("fpu_arith", (load,), tag="acc")
    simulate_loop(machine, stream, 3, carried_latency=carried)
    deps = [instr.deps for instr in seen[0]]
    if carried:
        assert deps == [(), (0,), (), (1, 2), (), (3, 4)]
    else:
        assert deps == [(), (0,), (), (2,), (), (4,)]


def test_ipc_reported():
    res = simulate(power_machine(), [Instr(i, "fpu_arith") for i in range(8)])
    assert 0.5 < res.ipc <= 1.0


# ---------------------------------------------------------------------------
# Cross-validation: estimator vs reference on random DAGs (the heart of
# the Figure 7 claim -- predictions track the scheduler).
# ---------------------------------------------------------------------------

_ATOMICS = ["fxu_add", "fpu_arith", "lsu_load", "fpu_store", "branch"]


@st.composite
def dag_streams(draw):
    n = draw(st.integers(1, 20))
    instrs = []
    for i in range(n):
        deps = ()
        if i and draw(st.integers(0, 2)):
            deps = (draw(st.integers(0, i - 1)),)
        instrs.append(Instr(i, draw(st.sampled_from(_ATOMICS)), deps))
    return instrs


@given(dag_streams())
@settings(max_examples=60, deadline=None)
def test_estimator_tracks_reference(instrs):
    """Prediction within a small factor of the reference schedule."""
    from repro.cost import place_stream

    machine = power_machine()
    predicted = place_stream(machine, instrs).cycles
    reference = simulate(machine, instrs, with_spills=False).cycles
    assert reference > 0 and predicted > 0
    ratio = predicted / reference
    assert 0.5 <= ratio <= 1.6, (predicted, reference)
