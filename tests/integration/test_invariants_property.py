"""Cross-cutting property tests: invariants the whole stack must keep."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import random_stream
from repro.cost import BinSet, StraightLineEstimator, place_stream
from repro.machine import get_machine, machine_names


@given(st.integers(1, 40), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_placement_deterministic(size, seed):
    """Same stream, same machine -> identical placement, always."""
    machine = get_machine("power")
    stream = random_stream(machine, size, seed=seed)
    first = place_stream(machine, list(stream), bins=BinSet(machine))
    second = place_stream(machine, list(stream), bins=BinSet(machine))
    assert first.cycles == second.cycles
    assert [op.time for op in first.ops] == [op.time for op in second.ops]


@given(st.integers(1, 30), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_costblock_invariants(size, seed):
    machine = get_machine("power")
    stream = random_stream(machine, size, seed=seed)
    block = place_stream(machine, list(stream)).block
    assert block.lo >= 0
    assert block.occupied_hi >= block.lo
    assert block.completion >= block.occupied_hi
    for bin_id in block.used_bins():
        first, last = block.bin_profiles[bin_id]
        assert block.lo <= first <= last < block.occupied_hi
        assert block.bottom_gap(bin_id) >= 0
        assert block.top_gap(bin_id) >= 0
        assert 0 < block.bin_occupancy[bin_id] <= last - first + 1
    assert 0.0 <= block.unroll_headroom() <= 1.0


@given(st.integers(2, 20), st.integers(0, 1000), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_unrolled_estimate_nearly_subadditive(size, seed, factor):
    """k-fold replication costs about at most k separate executions.

    Exact subadditivity does NOT hold: greedy lowest-slot placement has
    Graham-style scheduling anomalies, where interleaving two copies
    can exceed stacking them (the paper's model "imitates, not
    outperforms" the compiler, so the anomaly is faithful).  One extra
    single-execution span bounds the anomaly comfortably in practice.
    """
    machine = get_machine("power")
    stream = random_stream(machine, size, seed=seed)
    estimator = StraightLineEstimator(machine)
    single = estimator.estimate(stream).cycles
    replicated = estimator.estimate_unrolled(stream, factor).cycles
    assert replicated <= (factor + 1) * single
    assert replicated >= single


@given(st.integers(1, 25), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_steady_never_exceeds_single_visit(size, seed):
    machine = get_machine("power")
    stream = random_stream(machine, size, seed=seed)
    cost = StraightLineEstimator(machine).estimate(stream)
    assert 0 <= cost.steady_cycles <= max(cost.cycles, 1)


@given(st.integers(1, 20), st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_machines_all_handle_any_power_shaped_dag(size, seed):
    """Every registered machine places its own random streams."""
    for name in machine_names():
        machine = get_machine(name)
        stream = random_stream(machine, size, seed=seed)
        placed = place_stream(machine, list(stream))
        assert placed.cycles > 0
