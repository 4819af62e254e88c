"""E-F3 -- Figure 3: dropping the loop body into the functional bins.

Reproduces the paper's worked example: the body of

    do l = 1, 150
      c(l) = c(l) + a(l) * b(l)
    end do

dropped into the five POWER bins (FXU, FPU, BranchU, CR-LogicU,
Load/StoreU).  Checks the landing slots the figure implies -- loads
pipeline through the LSU, the FMA waits for its operands, the store
follows the FMA, the branch hides in the Branch unit -- and renders the
ASCII bin picture.
"""

from repro.cost import BinSet, place_stream
from repro.machine import power_machine
from repro.translate.stream import Instr

from _report import emit_table

FIG3_BODY = [
    Instr(0, "lsu_load", tag="load a(l)"),
    Instr(1, "lsu_load", tag="load b(l)"),
    Instr(2, "lsu_load", tag="load c(l)"),
    Instr(3, "fpu_arith", deps=(0, 1, 2), tag="r = c + a*b (fma)"),
    Instr(4, "fpu_store", deps=(3,), tag="store c(l)"),
    Instr(5, "fxu_cmp", tag="l vs 150"),
    Instr(6, "branch", deps=(5,), tag="loop branch"),
]


def _place():
    machine = power_machine()
    bins = BinSet(machine)
    placed = place_stream(machine, FIG3_BODY, bins=bins)
    return machine, bins, placed


def test_fig3_landing_slots(benchmark):
    _, bins, placed = benchmark.pedantic(_place, rounds=1, iterations=1)
    slots = {op.instr.tag: op.time for op in placed.ops}
    rows = [(tag, time, FIG3_BODY[i].atomic)
            for i, (tag, time) in enumerate(slots.items())]
    emit_table(
        "E-F3",
        "Figure 3: Tetris drop of `c(l) = c(l) + a(l)*b(l)` into POWER bins",
        ["operation", "time slot", "atomic op"],
        rows,
        notes=bins.render(),
    )
    # Loads pipeline 1/cycle through the single LSU.
    assert slots["load a(l)"] == 0
    assert slots["load b(l)"] == 1
    assert slots["load c(l)"] == 2
    # FMA waits for the last load's result (issued at 2, ready at 4).
    assert slots["r = c + a*b (fma)"] == 4
    # The dependent store waits for the FMA result.
    assert slots["store c(l)"] == 6
    # Compare and branch hide under the loads in their own bins.
    assert slots["l vs 150"] == 0
    assert slots["loop branch"] <= 2


def test_fig3_total_cost(benchmark):
    _, _, placed = benchmark.pedantic(_place, rounds=1, iterations=1)
    # store at 6, FPU busy 6 (+1 coverable), FXU of store at 6: cost 8.
    assert placed.cycles == 8


def test_fig3_bins_flushed_between_blocks(benchmark):
    """'The bins are flushed before being used for another block.'"""
    machine = power_machine()

    def run():
        first = place_stream(machine, FIG3_BODY, bins=BinSet(machine))
        second = place_stream(machine, FIG3_BODY, bins=BinSet(machine))
        return first, second

    first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.cycles == second.cycles
    assert first.ops[0].time == second.ops[0].time == 0


def test_fig3_placement_throughput(benchmark):
    machine = power_machine()
    benchmark(lambda: place_stream(machine, FIG3_BODY).cycles)
