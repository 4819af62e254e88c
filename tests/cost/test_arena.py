"""Batch placement: dedup, prefix resume, and bit-identity.

Every assertion here is differential: whatever path a stream takes
through ``place_batch`` (SoA drop, memo hit, digest dedup, prefix-
snapshot resume), the result must be the one the legacy
``BinSet.place`` loop produces over fresh bins.
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost import (
    arena_cache_stats,
    place_batch,
    place_stream,
    reset_arenas,
    reset_placement_cache,
    set_placement_kernel,
)
from repro.cost.arena import _LCP_CHUNK, _lcp
from repro.cost.columnar import compile_stream
from repro.cost.placement import _place_uncached
from repro.machine import power_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr, InstrStream

FOCUS = 64


def setup_function(_):
    reset_placement_cache()
    reset_arenas()


def _ops(machine):
    return [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]


def _stream(machine, n, seed, prefix=None):
    """A random stream; with ``prefix``, its first len(prefix) instrs."""
    rng = random.Random(seed)
    names = _ops(machine)
    instrs = list(prefix or [])
    for i in range(len(instrs), n):
        deps = tuple(rng.sample(range(i), k=min(i, rng.randint(0, 3))))
        instrs.append(Instr(i, rng.choice(names), deps=deps))
    return instrs


def _legacy(machine, instrs):
    return _place_uncached(machine, instrs, FOCUS, None, "legacy")


def _same_placement(got, want):
    assert [(o.time, o.completion) for o in got.ops] == \
           [(o.time, o.completion) for o in want.ops]
    assert got.cycles == want.cycles
    assert got.block == want.block


def test_batch_matches_legacy_per_stream():
    machine = power_machine()
    shared = _stream(machine, 40, seed=7)
    streams = [_stream(machine, 60, seed=100 + k, prefix=shared)
               for k in range(8)]
    results = place_batch(machine, streams, FOCUS, use_memo=False)
    for instrs, placed in zip(streams, results):
        _same_placement(placed, _legacy(machine, instrs))
    stats = arena_cache_stats()
    assert stats["batches"] == 1 and stats["streams"] == 8
    assert stats["prefix_reuses"] >= 6          # siblings fork, not replay
    assert stats["prefix_ops_saved"] >= 6 * 16  # forks skip the shared head


def test_batch_dedups_identical_streams():
    machine = power_machine()
    base = _stream(machine, 30, seed=3)
    other = _stream(machine, 30, seed=4)
    results = place_batch(machine, [base, other, base, base], FOCUS,
                          use_memo=False)
    _same_placement(results[0], _legacy(machine, base))
    _same_placement(results[1], _legacy(machine, other))
    assert [(o.time, o.completion) for o in results[2].ops] == \
           [(o.time, o.completion) for o in results[0].ops]
    stats = arena_cache_stats()
    assert stats["dedup"] == 2
    assert stats["placed"] == 2                 # only the unique pair dropped


def test_batch_probes_and_feeds_the_placement_memo():
    machine = power_machine()
    instrs = _stream(machine, 24, seed=11)
    warm = place_stream(machine, instrs, FOCUS)      # seeds the memo
    results = place_batch(machine, [instrs], FOCUS)
    _same_placement(results[0], warm)
    assert arena_cache_stats()["memo_hits"] == 1
    assert arena_cache_stats()["placed"] == 0
    # A fresh batch stream lands in the memo for later place_stream calls.
    fresh = _stream(machine, 24, seed=12)
    place_batch(machine, [fresh], FOCUS)
    before = arena_cache_stats()["placed"]
    _same_placement(place_stream(machine, fresh, FOCUS),
                    _legacy(machine, fresh))
    assert arena_cache_stats()["placed"] == before   # served by the memo


def test_batch_accepts_mixed_stream_types():
    machine = power_machine()
    instrs = _stream(machine, 12, seed=5)
    stream = InstrStream()
    for i in instrs:
        stream.append(i.atomic, deps=i.deps)
    compiled = compile_stream(machine, instrs)
    results = place_batch(machine, [instrs, stream, compiled], FOCUS,
                          use_memo=False)
    want = _legacy(machine, instrs)
    _same_placement(results[0], want)
    _same_placement(results[2], want)
    assert results[1].cycles == want.cycles


def test_empty_batch_and_empty_stream():
    machine = power_machine()
    assert place_batch(machine, [], FOCUS) == []
    results = place_batch(machine, [[]], FOCUS, use_memo=False)
    assert results[0].cycles == 0 and results[0].ops == ()


def test_foreign_compiled_stream_rejected():
    compiled = compile_stream(power_machine(), [Instr(0, "fpu_arith")])
    with pytest.raises(ValueError):
        place_batch(wide_machine(), [compiled])


def test_focus_span_below_one_rejected():
    with pytest.raises(ValueError):
        place_batch(power_machine(), [[Instr(0, "fpu_arith")]], focus_span=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3 * _LCP_CHUNK),
       st.lists(st.integers(0, 3), max_size=3 * _LCP_CHUNK),
       st.integers(0, 3 * _LCP_CHUNK))
def test_lcp_matches_a_naive_scan(head, tail, shared):
    """Chunked LCP vs a token-by-token scan, across chunk boundaries."""
    a = array("q", head)
    b = array("q", head[:shared] + tail)
    limit = min(len(a), len(b))
    want = next((k for k in range(limit) if a[k] != b[k]), limit)
    assert _lcp(a, b, limit) == want


def test_unknown_kernel_still_rejected():
    for name in ("vectorized", "arena"):
        with pytest.raises(ValueError):
            set_placement_kernel(name)
