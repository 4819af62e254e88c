"""Tests for the straight-line estimator facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    BinSet,
    StraightLineEstimator,
    place_stream,
    recommended_span,
    set_placement_kernel,
)
from repro.cost.focus import DEFAULT_SPAN, EXHAUSTIVE_SPAN, FAST_SPAN
from repro.machine import get_machine, power_machine
from repro.translate.stream import Instr, InstrStream


def _stream(specs, label="t"):
    stream = InstrStream(machine_name="power", label=label)
    for atomic, deps, one_time in specs:
        stream.append(atomic, deps, one_time=one_time)
    return stream


def test_estimate_basic():
    est = StraightLineEstimator(power_machine())
    stream = _stream([
        ("lsu_load", (), False),
        ("fpu_arith", (0,), False),
    ])
    cost = est.estimate(stream)
    assert cost.cycles == 4       # load 0..1, fadd at 2, result at 4
    assert cost.one_time_cycles == 0
    assert cost.total_first_iteration == 4
    assert cost.steady_cycles <= cost.cycles


def test_one_time_split():
    """Loop-invariant instructions go into their own bins (section 2.2.2)."""
    est = StraightLineEstimator(power_machine())
    stream = _stream([
        ("lsu_load", (), True),          # invariant load, hoisted
        ("fpu_arith", (0,), False),      # uses the hoisted value
        ("fpu_store", (1,), False),
    ])
    cost = est.estimate(stream)
    assert cost.one_time_cycles == 2
    # Iterative part: fadd (dep dropped: value in register) + store.
    assert cost.cycles == 4
    assert not cost.one_time_block.is_empty


def test_estimate_unrolled_factor_one_matches_estimate():
    est = StraightLineEstimator(power_machine())
    stream = _stream([
        ("lsu_load", (), False),
        ("fpu_arith", (0,), False),
    ])
    assert est.estimate_unrolled(stream, 1).cycles == est.estimate(stream).cycles


def test_estimate_unrolled_improves_sparse_body():
    """A latency-bound body gains from unrolling; per-iteration cost drops."""
    est = StraightLineEstimator(power_machine())
    stream = _stream([
        ("lsu_load", (), False),
        ("fpu_arith", (0,), False),
        ("fpu_store", (1,), False),
    ])
    base = est.estimate(stream).cycles
    unrolled4 = est.estimate_unrolled(stream, 4).cycles
    assert unrolled4 < 4 * base
    with pytest.raises(ValueError):
        est.estimate_unrolled(stream, 0)


def test_recommend_unroll_prefers_larger_for_latency_bound():
    est = StraightLineEstimator(power_machine())
    stream = _stream([
        ("lsu_load", (), False),
        ("fpu_arith", (0,), False),
        ("fpu_store", (1,), False),
    ])
    assert est.recommend_unroll(stream) > 1


def test_recommend_unroll_skips_saturated_body():
    """16 independent FMAs saturate the FPU: unrolling gains ~nothing."""
    est = StraightLineEstimator(power_machine())
    stream = _stream([("fpu_arith", (), False) for _ in range(16)])
    assert est.recommend_unroll(stream) == 1


def test_empty_stream():
    est = StraightLineEstimator(power_machine())
    cost = est.estimate(InstrStream())
    assert cost.cycles == 0 and cost.one_time_cycles == 0


def test_focus_span_constants():
    assert FAST_SPAN < DEFAULT_SPAN < EXHAUSTIVE_SPAN
    assert recommended_span(4) == FAST_SPAN
    assert recommended_span(1000) == DEFAULT_SPAN
    assert FAST_SPAN <= recommended_span(40) <= DEFAULT_SPAN


# ---------------------------------------------------------------------------
# Property tests: structural invariants of placement on random DAG streams.
# ---------------------------------------------------------------------------

_ATOMICS = ["fxu_add", "fpu_arith", "lsu_load", "fpu_store", "fxu_mul3"]


@st.composite
def random_streams(draw):
    n = draw(st.integers(1, 24))
    instrs = []
    for i in range(n):
        deps = ()
        if i and draw(st.booleans()):
            k = draw(st.integers(1, min(2, i)))
            deps = tuple(sorted(draw(
                st.sets(st.integers(0, i - 1), min_size=k, max_size=k)
            )))
        instrs.append(Instr(i, draw(st.sampled_from(_ATOMICS)), deps))
    return instrs


@given(random_streams())
@settings(max_examples=60, deadline=None)
def test_placement_respects_dependences(instrs):
    machine = power_machine()
    placed = place_stream(machine, instrs, bins=BinSet(machine))
    for op in placed.ops:
        for dep in op.instr.deps:
            assert op.time >= placed.ops[dep].completion


@given(random_streams())
@settings(max_examples=60, deadline=None)
def test_cycles_bounded_by_serial_sum(instrs):
    """The overlap model never exceeds fully-serial execution."""
    machine = power_machine()
    placed = place_stream(machine, instrs)
    serial = sum(machine.atomic(i.atomic).result_latency for i in instrs)
    assert 0 < placed.cycles <= serial
    # And never beats the best single-unit occupancy bound.
    occupancy = {}
    for instr in instrs:
        for cost in machine.atomic(instr.atomic).costs:
            occupancy[cost.unit] = occupancy.get(cost.unit, 0) + cost.noncoverable
    assert placed.cycles >= max(occupancy.values(), default=0)


@given(random_streams(), st.sampled_from(_ATOMICS), st.integers(1, 8),
       st.sampled_from([2, 8, EXHAUSTIVE_SPAN]))
@settings(max_examples=60, deadline=None)
def test_narrow_focus_never_places_one_op_lower(prefix, atomic, span,
                                                prefix_span):
    """One op dropped into identical bins lands no lower under a narrower span.

    A narrower span only raises the floor of the search for the lowest
    feasible slot.  That is all greedy placement promises: it does not
    carry over to whole streams (see the next test).
    """
    machine = power_machine()
    landed = []
    for focus in (span, EXHAUSTIVE_SPAN):
        bins = BinSet(machine)
        place_stream(machine, prefix, focus_span=prefix_span, bins=bins)
        placed = place_stream(machine, [Instr(0, atomic)], focus_span=focus,
                              bins=bins)
        landed.append(placed.ops[0].time)
    narrow, wide = landed
    assert narrow >= wide


@pytest.mark.parametrize("kernel", ["fused", "legacy"])
def test_a_narrow_focus_can_place_a_stream_in_fewer_cycles(kernel):
    """Greedy placement is not monotone in the focus span.

    Hypothesis found this 23-op stream: it places in 14 cycles at span
    4 and in 15 at the exhaustive span, on both kernels.  Such streams
    are rare (3 in 20,000 random streams of this module's strategy's
    shape, spans 2-8), but they exist.
    """
    spec = ["fxu_add", "fxu_add", "fxu_add", ("fpu_arith", 0, 1),
            "fpu_arith", "fpu_store", ("fpu_arith", 0, 1), "lsu_load",
            ("fpu_arith", 0, 1), "fpu_arith", "lsu_load", "lsu_load",
            "fxu_add", "fxu_add", "fpu_arith", "fpu_arith", "fpu_arith",
            "fxu_mul3", "fpu_arith", "fpu_arith", "fpu_store", "fxu_mul3",
            "fxu_add"]
    instrs = [Instr(i, op) if isinstance(op, str) else Instr(i, op[0], op[1:])
              for i, op in enumerate(spec)]
    machine = power_machine()
    previous = set_placement_kernel(kernel)
    try:
        narrow = place_stream(machine, instrs, focus_span=4,
                              bins=BinSet(machine))
        wide = place_stream(machine, instrs, focus_span=EXHAUSTIVE_SPAN,
                            bins=BinSet(machine))
    finally:
        set_placement_kernel(previous)
    assert (narrow.cycles, wide.cycles) == (14, 15)


@given(random_streams())
@settings(max_examples=40, deadline=None)
def test_wide_machine_never_slower(instrs):
    power = place_stream(get_machine("power"), instrs)
    wide = place_stream(get_machine("wide"), instrs)
    assert wide.cycles <= power.cycles
