"""The benchmark's five traffic mixes and their seeded request streams.

A request is ``(kind, payload)``: ``kind`` names the endpoint
(``predict``, ``sweep`` or ``restructure``) and ``payload`` is the JSON
object the client sends.  Stream element ``k`` of a workload is a pure
function of ``(seed, k)``, so the same seed always replays the same
requests, the live run and the in-process replay see identical inputs,
and a faster commit simply gets further down the same stream.

Programs that must be never-seen come from a *seed-invariant structure
corpus*: program ``k``'s statement shapes, loop nest and size are drawn
from a generator keyed on ``(workload, k)`` alone, while the seed picks
the surface -- array and scalar names and the order within each block
of sizes.  Every program is new to the server (its source and digest
differ), yet every seed asks for the same amount of work, which keeps
run-to-run spreads far below the regression bounds.  A fully random
body would not: a restructure request's search cost swings 4x with the
dependence pattern of its statements.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from repro.bench.kernels import KERNELS, kernel_names

__all__ = ["Request", "Workload", "WORKLOADS"]

Request = tuple[str, dict]

_ARRAY_POOL = ("aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "pp", "qq",
               "rr", "uu", "vv", "ww", "xx", "yy", "zz")
_SCALAR_POOL = ("s", "t", "alpha", "beta", "gamma", "omega", "w1", "w2")


def _program_source(tag: str, k: int, size: int, nest: bool,
                   surface: random.Random) -> str:
    """One loop program: structure from ``(tag, k)``, names from ``surface``.

    ``size`` assignments sit in a single ``do i`` loop, or in a 2-deep
    ``do j`` / ``do i`` nest over 2-D arrays.  Each right-hand side sums
    one to three array references at small offsets, half of them scaled
    by a scalar -- the texture of scientific inner loops.
    """
    shape = random.Random(f"{tag}:{k}")
    arrays = surface.sample(_ARRAY_POOL, 4)
    scalars = surface.sample(_SCALAR_POOL, 2)
    dims = "n+8, n+8" if nest else "n+8"

    def ref(offset: int) -> str:
        name = arrays[shape.randrange(len(arrays))]
        return f"{name}(i + {offset}, j)" if nest else f"{name}(i + {offset})"

    body = []
    for index in range(size):
        terms = []
        for _ in range(shape.randint(1, 3)):
            term = ref(shape.randint(0, 3))
            if shape.random() < 0.5:
                term = f"{scalars[shape.randrange(2)]} * {term}"
            terms.append(term)
        expr = terms[0]
        for term in terms[1:]:
            expr += f" {shape.choice('+-')} {term}"
        body.append(f"{ref(index % 4)} = {expr}")
    lines = [f"program {tag}{k}", "  integer n, i, j",
             "  real " + ", ".join(f"{name}({dims})" for name in arrays),
             "  real " + ", ".join(scalars)]
    if nest:
        lines += ["  do j = 1, n", "    do i = 1, n"]
        lines += ["      " + stmt for stmt in body]
        lines += ["    end do", "  end do"]
    else:
        lines += ["  do i = 1, n"]
        lines += ["    " + stmt for stmt in body]
        lines += ["  end do"]
    lines.append("end")
    return "\n".join(lines) + "\n"


def _block_order(seed: int, tag: str, k: int, block: int) -> int:
    """Corpus index for stream position ``k``: a seeded shuffle per block.

    Every block of ``block`` consecutive positions covers the same
    corpus entries for every seed, only in a different order.  The
    index modulo ``block`` selects the entry of a cyclic corpus.
    """
    start = k - k % block
    order = list(range(start, start + block))
    random.Random(f"{seed}:{tag}:order:{start}").shuffle(order)
    return order[k % block]


# -- hot_predict / routed_hot ----------------------------------------------

_HOT_SIZES = (64, 128, 256, 512)
_HOT_KEYS = [(name, n) for name in kernel_names() for n in _HOT_SIZES]


def _predict(source: str, n: int) -> Request:
    return ("predict", {"source": source, "bindings": {"n": str(n)}})


def _hot_request(seed: int, k: int) -> Request:
    name, n = _HOT_KEYS[
        _block_order(seed, "hot", k, len(_HOT_KEYS)) % len(_HOT_KEYS)]
    return _predict(KERNELS[name].source, n)


def _hot_warm(seed: int) -> list[list[Request]]:
    return [[_predict(KERNELS[name].source, n) for name, n in _HOT_KEYS]]


# -- fresh_bindings --------------------------------------------------------

_FRESH_GENERATED = 22
_FRESH_COUNT = len(kernel_names()) + _FRESH_GENERATED


@functools.lru_cache(maxsize=4)
def _fresh_programs(seed: int) -> tuple[str, ...]:
    """The 10 Figure-7 kernels plus 22 generated loops of 2-12 statements."""
    sources = [KERNELS[name].source for name in kernel_names()]
    for k in range(_FRESH_GENERATED):
        surface = random.Random(f"{seed}:fresh:{k}")
        sources.append(_program_source("fresh", k, 2 + k % 11, k % 2 == 1,
                                       surface))
    return tuple(sources)


def _fresh_binding(seed: int, k: int) -> int:
    """A binding of ``n`` that no earlier request (nor warm-up) used.

    Position ``k`` owns the residue class ``k`` modulo 2**20; the seeded
    high part spreads values over a wide range.
    """
    high = random.Random(f"{seed}:fresh:n:{k}").randrange(1, 1 << 10)
    return (high << 20) + k


def _fresh_request(seed: int, k: int) -> Request:
    source = _fresh_programs(seed)[
        _block_order(seed, "fresh", k, _FRESH_COUNT) % _FRESH_COUNT]
    payload = {"source": source,
               "bindings": {"n": str(_fresh_binding(seed, k))}}
    return ("sweep" if k % 4 == 3 else "predict", payload)


def _fresh_warm(seed: int) -> list[list[Request]]:
    """Build every predictor and every sweep ladder once, at n = 7."""
    sources = _fresh_programs(seed)
    return [[_predict(source, 7) for source in sources],
            [("sweep", {"source": source, "bindings": {"n": "7"}})
             for source in sources]]


# -- new_programs ----------------------------------------------------------

#: One block: nine single loops of 8..40 statements and three 2-deep nests.
_NEW_SHAPES = tuple((size, False) for size in range(8, 41, 4)) + (
    (4, True), (8, True), (12, True))


def _new_source(seed: int, tag: str, k: int) -> str:
    size, nest = _NEW_SHAPES[k % len(_NEW_SHAPES)]
    return _program_source(tag, k, size, nest,
                           random.Random(f"{seed}:{tag}:{k}"))


def _new_request(seed: int, k: int) -> Request:
    index = _block_order(seed, "new", k, len(_NEW_SHAPES))
    return _predict(_new_source(seed, "new", index), 100)


def _new_warm(seed: int) -> list[list[Request]]:
    return [[_predict(_new_source(seed, "warm", k), 100)
             for k in range(len(_NEW_SHAPES))]]


# -- restructure -----------------------------------------------------------

#: Two expansion rounds (the root, then its best child) of two-wide
#: beams: about seven incremental predictions per request, so that a
#: window holds well over a hundred requests at the seed commit's speed.
_RESTRUCTURE_SIZES = (3, 4, 5, 6)
_RESTRUCTURE_PARAMS = {"depth": 2, "max_nodes": 2, "beam_width": 2,
                       "workload": {"n": "256"}}


def _restructure_payload(seed: int, tag: str, k: int) -> dict:
    size = _RESTRUCTURE_SIZES[k % len(_RESTRUCTURE_SIZES)]
    source = _program_source(tag, k, size, False,
                             random.Random(f"{seed}:{tag}:{k}"))
    return {"source": source, **_RESTRUCTURE_PARAMS}


def _restructure_request(seed: int, k: int) -> Request:
    index = _block_order(seed, "restructure", k, len(_RESTRUCTURE_SIZES))
    return ("restructure", _restructure_payload(seed, "restructure", index))


def _restructure_warm(seed: int) -> list[list[Request]]:
    return [[("restructure", _restructure_payload(seed, "warm", 0))]]


# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One traffic mix (why each exists: ``BENCHMARK.json``, README)."""

    name: str
    #: Closed-loop client threads, one keep-alive connection each.
    conns: int
    #: Through ``repro route`` over two backends instead of one server.
    routed: bool
    #: Percentile reported as ``latency_tail_ms``: the highest whole one
    #: that keeps at least ten samples beyond it, with some margin, at
    #: the seed commit's speed.
    tail: float
    #: Requests replayed in process by the traced run.
    replay: int
    #: Completed requests after which ``peak_rss_mb`` is read; about
    #: two thirds of what the seed commit completes in a 15 s window.
    rss_after: int
    #: Setup batches, sent before timing starts (one POST per batch).
    warm: Callable[[int], list[list[Request]]]
    #: Stream element ``k`` for a seed.
    request: Callable[[int, int], Request]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("hot_predict", conns=2, routed=False, tail=98, replay=800,
             rss_after=450, warm=_hot_warm, request=_hot_request),
    Workload("fresh_bindings", conns=2, routed=False, tail=98, replay=400,
             rss_after=430, warm=_fresh_warm, request=_fresh_request),
    Workload("new_programs", conns=1, routed=False, tail=95, replay=64,
             rss_after=160, warm=_new_warm, request=_new_request),
    Workload("restructure", conns=1, routed=False, tail=90, replay=32,
             rss_after=90, warm=_restructure_warm,
             request=_restructure_request),
    Workload("routed_hot", conns=2, routed=True, tail=97, replay=800,
             rss_after=340, warm=_hot_warm, request=_hot_request),
)}
