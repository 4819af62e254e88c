"""Repeated dropping: the ladder equals the replicated placement.

``StraightLineEstimator.estimate_unrolled(stream, k)`` drops the
stream's iterative part into one set of bins again and again and reads
the summary after copy ``k`` (:func:`repro.cost.place_copies`).  The
paper's definition is the placement of the body replicated ``k`` times,
each copy re-indexed past the previous one; these tests pin the ladder
to that definition and check its memo.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost import (
    StraightLineEstimator,
    place_copies,
    place_stream,
    reset_placement_cache,
    set_placement_kernel,
)
from repro.cost.focus import FAST_SPAN
from repro.cost.placement import DEFAULT_FOCUS_SPAN
from repro.machine import get_machine, power_machine
from repro.obs import cache_stats
from repro.translate.stream import Instr, InstrStream, reindex

_MACHINES = ("power", "wide", "scalar", "alpha")


def _placeable(machine):
    return sorted(
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0))


def _replicated(stream, factor):
    """The body replicated ``factor`` times, the paper's way."""
    iterative = reindex([i for i in stream if not i.one_time])
    out = []
    for copy in range(factor):
        base = copy * len(iterative)
        out.extend(Instr(base + i.index, i.atomic,
                         tuple(base + d for d in i.deps))
                   for i in iterative)
    return out


@st.composite
def _cases(draw):
    machine = get_machine(draw(st.sampled_from(_MACHINES)))
    names = _placeable(machine)
    stream = InstrStream()
    for i in range(draw(st.integers(0, 16))):
        n_deps = draw(st.integers(0, min(i, 3)))
        deps = tuple(sorted(draw(st.sets(
            st.integers(0, i - 1), min_size=n_deps, max_size=n_deps)))
        ) if i else ()
        stream.append(draw(st.sampled_from(names)), deps,
                      one_time=draw(st.integers(0, 5)) == 0)
    return (machine, stream,
            draw(st.sampled_from((FAST_SPAN, DEFAULT_FOCUS_SPAN))),
            draw(st.integers(1, 12)),
            draw(st.sampled_from(("fused", "legacy"))))


@given(_cases())
@settings(max_examples=150, deadline=None)
def test_ladder_equals_the_replicated_placement(case):
    machine, stream, span, factor, kernel = case
    previous = set_placement_kernel(kernel)
    try:
        reset_placement_cache()
        got = StraightLineEstimator(machine, span).estimate_unrolled(
            stream, factor)
        want = place_stream(machine, _replicated(stream, factor), span)
    finally:
        set_placement_kernel(previous)
    assert got.block == want.block
    assert got.cycles == want.cycles
    assert got.one_time_cycles == 0


def test_one_drop_reads_every_requested_count():
    machine = power_machine()
    body = [Instr(0, "fpu_div"), Instr(1, "fxu_add", (0,))]
    assert place_copies(machine, body, (1, 2, 3)) == tuple(
        place_stream(machine, _replicated(body, k)).block for k in (1, 2, 3))


def _body():
    stream = InstrStream()
    for i in range(6):
        stream.append("fpu_arith", (i - 1,) if i % 2 else ())
    stream.append("lsu_load", one_time=True)
    return stream


@pytest.fixture
def spies(monkeypatch):
    """Count lowered streams and every Instr built."""
    from repro.cost import columnar

    counts = {"lowered": 0, "instrs": 0}
    real_lower = columnar._lower
    real_post_init = Instr.__post_init__

    def lower(ops, instrs, digest):
        counts["lowered"] += 1
        return real_lower(ops, instrs, digest)

    def post_init(self):
        counts["instrs"] += 1
        real_post_init(self)

    monkeypatch.setattr(columnar, "_lower", lower)
    monkeypatch.setattr(Instr, "__post_init__", post_init)
    reset_placement_cache()
    yield counts
    reset_placement_cache()


def test_ladder_hit_builds_no_replica_and_lowers_nothing(spies):
    estimator = StraightLineEstimator(power_machine())
    stream = _body()
    iterative = len(stream.iterative())
    spies.update(instrs=0)
    estimator.estimate_unrolled(stream, 4)
    assert spies["lowered"] == 1          # the x1 body, once
    assert spies["instrs"] == iterative   # its re-indexed copy, no replica
    spies.update(lowered=0, instrs=0)
    for factor in (8, 2, 4):
        estimator.estimate_unrolled(stream, factor)
    assert spies["lowered"] == 0
    assert spies["instrs"] == 3 * iterative
    assert cache_stats()["ladder"]["hits"] == 3


def test_reset_placement_cache_empties_the_ladders(spies):
    estimator = StraightLineEstimator(power_machine())
    estimator.estimate_unrolled(_body(), 8)
    assert cache_stats()["ladder"]["entries"] == 1
    reset_placement_cache()
    assert cache_stats()["ladder"]["entries"] == 0
    estimator.estimate_unrolled(_body(), 8)
    assert spies["lowered"] == 2


def test_recalibrated_machine_misses(spies, monkeypatch):
    from repro.machine import reset_compiled_ops

    machine = power_machine()
    StraightLineEstimator(machine).estimate_unrolled(_body(), 4)
    reset_compiled_ops()
    monkeypatch.setattr(type(machine), "fingerprint",
                        lambda self: "deadbeefdeadbeef")
    try:
        StraightLineEstimator(machine).estimate_unrolled(_body(), 4)
    finally:
        reset_compiled_ops()
    stats = cache_stats()["ladder"]
    assert stats["misses"] == 2 and stats["hits"] == 0
    assert spies["lowered"] == 2


def test_copies_and_span_are_validated():
    machine = power_machine()
    body = [Instr(0, "fxu_add")]
    for reads in ((), (0, 2), (4, 2), (2, 2)):
        with pytest.raises(ValueError):
            place_copies(machine, body, reads)
    with pytest.raises(ValueError):
        place_copies(machine, body, (2,), focus_span=0)
