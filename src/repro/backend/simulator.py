"""Reference back-end facade: schedule + spills -> ground-truth cycles.

``simulate`` is what every benchmark calls to obtain the "measured"
column of the paper's Figure 7: it inserts spill code where the block's
liveness exceeds the register file, then list-schedules the result on
the machine description.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.machine import Machine
from ..translate.stream import Instr, InstrStream
from .regalloc import insert_spills
from .scheduler import Schedule, list_schedule

__all__ = ["SimResult", "simulate", "simulate_loop"]


@dataclass(frozen=True)
class SimResult:
    """Ground-truth execution summary of one basic block."""

    cycles: int
    instructions: int
    ipc: float
    spill_stores: int
    spill_loads: int
    schedule: Schedule


def simulate(
    machine: Machine,
    stream: InstrStream | list[Instr],
    dispatch_width: int | None = None,
    with_spills: bool = True,
) -> SimResult:
    """Reference cycle count for one execution of a basic block."""
    if isinstance(stream, list):
        from ..translate.stream import reindex

        wrapped = InstrStream(machine_name=machine.name)
        for instr in reindex(stream):
            wrapped.append(instr.atomic, instr.deps, instr.tag, instr.one_time)
        stream = wrapped
    if with_spills:
        spilled = insert_spills(machine, stream)
        run_stream = spilled.stream
        stores, loads = spilled.spill_stores, spilled.spill_loads
    else:
        run_stream, stores, loads = stream, 0, 0
    schedule = list_schedule(machine, run_stream, dispatch_width)
    return SimResult(
        cycles=schedule.cycles,
        instructions=schedule.instructions,
        ipc=schedule.ipc,
        spill_stores=stores,
        spill_loads=loads,
        schedule=schedule,
    )


def simulate_loop(
    machine: Machine,
    stream: InstrStream,
    iterations: int,
    carried_latency: int = 0,
    dispatch_width: int | None = None,
) -> SimResult:
    """Ground truth for a loop: replicate the body ``iterations`` times.

    Iteration ``k+1``'s instructions depend on iteration ``k`` only
    through the recurrence (``carried_latency`` > 0 chains the last
    instruction of each copy), mirroring how the real pipeline overlaps
    iterations.  One-time instructions appear once, up front.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    merged = InstrStream(machine_name=machine.name, label=stream.label)
    one_time = [i for i in stream if i.one_time]
    iterative = [i for i in stream if not i.one_time]
    remap: dict[int, int] = {}
    for instr in one_time:
        copied = merged.append(instr.atomic, tuple(
            remap[d] for d in instr.deps if d in remap
        ), tag=instr.tag)
        remap[instr.index] = copied.index
    prev_anchor: int | None = None
    for _ in range(iterations):
        local: dict[int, int] = dict(remap)
        last_index: int | None = None
        for instr in iterative:
            deps = [local[d] for d in instr.deps if d in local]
            copied = merged.append(instr.atomic, tuple(deps), tag=instr.tag)
            local[instr.index] = copied.index
            last_index = copied.index
        if carried_latency and prev_anchor is not None and last_index is not None:
            # Chain the accumulators: simplest faithful recurrence model.
            merged.instrs[-1] = Instr(
                last_index,
                merged.instrs[-1].atomic,
                tuple(sorted(set(merged.instrs[-1].deps) | {prev_anchor})),
                merged.instrs[-1].tag,
            )
        prev_anchor = last_index
    return simulate(machine, merged, dispatch_width)
