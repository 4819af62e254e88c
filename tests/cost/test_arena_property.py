"""Property test: batch placement is bit-identical to both oracles.

Random machines and random *batches* of streams -- biased so that many
share prefixes or are outright identical, the regime ``place_batch``'s
dedup and snapshot machinery actually exercises -- must place
element-wise identically to the fused columnar kernel and the legacy
``BinSet.place`` loop: landing times, completions, and the summary
block with its per-pipe profiles and occupancy.
"""

from hypothesis import given, settings, strategies as st

from repro.cost import (
    place_batch,
    reset_placement_cache,
)
from repro.cost.placement import _place_uncached
from repro.machine.atomic import AtomicCostTable, AtomicOp
from repro.machine.machine import Machine
from repro.machine.units import FunctionalUnit, UnitCost, UnitKind
from repro.translate.stream import Instr

_KINDS = tuple(UnitKind)


@st.composite
def _machines(draw):
    n_units = draw(st.integers(1, 3))
    kinds = draw(st.permutations(_KINDS))[:n_units]
    units = tuple(
        FunctionalUnit(kind, draw(st.integers(1, 3))) for kind in kinds
    )
    table = AtomicCostTable()
    for i in range(draw(st.integers(1, 5))):
        n_costs = draw(st.integers(1, n_units))
        cost_kinds = draw(st.permutations(kinds))[:n_costs]
        costs = []
        for kind in cost_kinds:
            noncoverable = draw(st.integers(0, 4))
            coverable = draw(st.integers(0, 2))
            if noncoverable == 0 and coverable == 0:
                coverable = 1
            costs.append(UnitCost(kind, noncoverable, coverable))
        table.define(AtomicOp(f"op{i}", tuple(costs)))
    return Machine("hypo", units, table, {})


def _instrs(draw, names, n, start=0, base=()):
    instrs = list(base)
    for i in range(start, n):
        n_deps = draw(st.integers(0, min(i, 3)))
        deps = tuple(sorted(draw(
            st.sets(st.integers(0, i - 1), min_size=n_deps, max_size=n_deps)
        ))) if i else ()
        instrs.append(Instr(i, draw(st.sampled_from(names)), deps=deps))
    return instrs


@st.composite
def _machine_and_batch(draw):
    machine = draw(_machines())
    names = machine.table.names()
    shared_len = draw(st.integers(0, 20))
    shared = _instrs(draw, names, shared_len)
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 3))
        if kind == 0 and batch:
            batch.append(list(draw(st.sampled_from(batch))))  # exact dup
        elif kind == 1:
            n = draw(st.integers(shared_len, shared_len + 12))
            batch.append(_instrs(draw, names, n, start=shared_len,
                                 base=shared))                # shared prefix
        else:
            batch.append(_instrs(draw, names, draw(st.integers(1, 24))))
    focus_span = draw(st.sampled_from([1, 3, 16, 64]))
    return machine, batch, focus_span


@settings(max_examples=60, deadline=None)
@given(_machine_and_batch())
def test_batch_path_matches_both_oracles(case):
    machine, batch, focus_span = case
    reset_placement_cache()
    results = place_batch(machine, batch, focus_span, use_memo=False)
    for instrs, placed in zip(batch, results):
        legacy = _place_uncached(machine, instrs, focus_span, None, "legacy")
        fused = _place_uncached(machine, instrs, focus_span, None, "fused")
        got = [(o.time, o.completion) for o in placed.ops]
        assert got == [(o.time, o.completion) for o in legacy.ops]
        assert got == [(o.time, o.completion) for o in fused.ops]
        assert placed.cycles == legacy.cycles
        assert placed.block == legacy.block == fused.block
