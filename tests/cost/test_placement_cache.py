"""The placement memo: keying, sharing, and bypass semantics."""

import gc
import weakref

import pytest

from repro.cost import (
    BinSet,
    PLACEMENT_CACHE_LIMIT,
    place_stream,
    placement_cache_stats,
    reset_placement_cache,
    stream_digest,
)
from repro.machine import power_machine
from repro.translate.stream import Instr


def _stream(k=4):
    return [Instr(i, "fpu_arith", deps=(i - 1,) if i else ()) for i in range(k)]


def setup_function(_):
    reset_placement_cache()


def test_repeat_stream_hits():
    machine = power_machine()
    first = place_stream(machine, _stream())
    second = place_stream(machine, _stream())
    stats = placement_cache_stats()
    assert stats == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}
    assert second.cycles == first.cycles
    assert second.block == first.block


def test_focus_span_is_part_of_the_key():
    machine = power_machine()
    place_stream(machine, _stream(), focus_span=64)
    place_stream(machine, _stream(), focus_span=8)
    assert placement_cache_stats()["misses"] == 2


def test_recalibrated_machine_misses(monkeypatch):
    """Same stream, retrained cost table -> the old entry must not match."""
    from repro.machine import reset_compiled_ops

    machine = power_machine()
    place_stream(machine, _stream())
    assert placement_cache_stats()["misses"] == 1

    reset_compiled_ops()
    monkeypatch.setattr(type(machine), "fingerprint",
                        lambda self: "deadbeefdeadbeef")
    try:
        place_stream(machine, _stream())
    finally:
        reset_compiled_ops()
    stats = placement_cache_stats()
    assert stats["misses"] == 2 and stats["hits"] == 0


def test_explicit_bins_bypass_the_memo():
    """Shared pre-filled bins make placement stateful -- never memoized."""
    machine = power_machine()
    bins = BinSet(machine)
    place_stream(machine, _stream(), bins=bins)
    place_stream(machine, _stream(), bins=BinSet(machine))
    stats = placement_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 0 and stats["entries"] == 0


def test_hits_share_one_immutable_answer():
    """A hit returns the stored object itself: no ops, no copy per hit."""
    machine = power_machine()
    first = place_stream(machine, _stream())
    again = place_stream(machine, _stream())
    assert again is first
    assert again.ops == ()
    with pytest.raises(AttributeError):
        first.block = None
    with pytest.raises(AttributeError):
        first.ops = ()


def test_memo_pins_no_placed_instr():
    """A placed stream's Instr objects die with the caller's references."""
    machine = power_machine()
    instrs = _stream(6)
    probe = weakref.ref(instrs[3])
    placed = place_stream(machine, instrs)
    assert placement_cache_stats()["entries"] == 1
    del instrs, placed
    gc.collect()
    assert probe() is None


def test_stream_digest_covers_deps_not_tags():
    plain = [Instr(0, "fpu_arith"), Instr(1, "fpu_arith")]
    chained = [Instr(0, "fpu_arith"), Instr(1, "fpu_arith", deps=(0,))]
    tagged = [Instr(0, "fpu_arith", tag="x"), Instr(1, "fpu_arith", tag="y")]
    assert stream_digest(plain) != stream_digest(chained)
    assert stream_digest(plain) == stream_digest(tagged)


def test_eviction_keeps_the_memo_bounded():
    machine = power_machine()
    for k in range(PLACEMENT_CACHE_LIMIT + 8):
        place_stream(machine, [Instr(i, "fpu_arith") for i in range(1 + k % 7)],
                     focus_span=16 + k)
    stats = placement_cache_stats()
    assert stats["entries"] == PLACEMENT_CACHE_LIMIT
    assert stats["evictions"] == 8


def _spy_lowering(monkeypatch):
    """Record every stream the fused kernel lowers to columns."""
    from repro.cost import columnar

    lowered = []
    real = columnar._lower

    def spy(ops, instrs, digest):
        lowered.append(digest)
        return real(ops, instrs, digest)

    monkeypatch.setattr(columnar, "_lower", spy)
    return lowered


def test_estimating_a_block_twice_lowers_each_half_once(monkeypatch):
    from repro.cost import StraightLineEstimator
    from repro.translate.stream import InstrStream

    lowered = _spy_lowering(monkeypatch)
    block = InstrStream(_stream(6) + [Instr(6, "fxu_add", one_time=True)])
    estimator = StraightLineEstimator(power_machine())
    first = estimator.estimate(block)
    assert len(lowered) == 2            # iterative half + invariant half
    again = estimator.estimate(block)
    assert len(lowered) == 2            # both halves answered by the memo
    assert again.cycles == first.cycles
    assert again.one_time_cycles == first.one_time_cycles
