"""Width-parameterized superscalar machine family.

``family_machine(width)`` builds a POWER-derived machine whose
fetch/issue/commit width is the single free parameter: the dispatch
width *is* ``width`` and the FXU/FPU/LSU pipe counts scale with it
(one pipe per two slots of width, minimum one), while the BRANCH and
CRLOGIC units stay single-piped — mirroring how real wide cores
replicate arithmetic and memory pipes but keep one branch unit.  The
same cost table and atomic mapping are shared across the whole ladder,
so the only thing that changes between widths is machine parallelism;
``Machine.fingerprint()`` then differs deterministically per
configuration (the width is folded into the name and the unit list).

The module also carries the Charm-style mechanistic in-order model

    T = N/W + pmisses + pll + pdeps

used by the ``/sweep`` endpoint to add branch-misprediction and
cache-miss penalty terms on top of the placement-based cycle count.
Each penalty accounts for the half-window of issue slots lost around
the disrupting instruction:

    penalty_branch_miss = D + (W - 1) / (2W)
    penalty_cache_miss  = miss_latency - (W - 1) / (2W)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..obs.caches import BoundedCache
from .machine import Machine
from .units import FunctionalUnit, UnitKind

__all__ = [
    "DEFAULT_WIDTH_LADDER",
    "family_machine",
    "family_width_ladder",
    "mechanistic_cycles",
    "penalty_branch_miss",
    "penalty_cache_miss",
    "MechanisticTerms",
]

#: The ladder a sweep walks when the caller does not pick widths.
DEFAULT_WIDTH_LADDER = (1, 2, 4, 6, 8)

#: Branch mispredict redirect depth (front-end pipeline stages squashed).
BRANCH_REDIRECT_DEPTH = 5

MAX_FAMILY_WIDTH = 64


def _pipes_for(width: int) -> int:
    """Arithmetic/memory pipe count for a given dispatch width."""
    return max(1, width // 2)


#: Unit kinds that never gain pipes with width (one branch/condition
#: unit per core, however wide).
_SINGLETON_KINDS = frozenset({UnitKind.BRANCH, UnitKind.CRLOGIC})

#: (base identity, width) -> (base, member).  Stable member identity
#: matters beyond construction cost: the compiled-op memo (which is
#: also placement's fingerprint memo) is keyed by machine identity, so
#: handing back the same object per (base, width) keeps repeated
#: sweeps off the sha256 path entirely.
_MEMBER_MEMO: BoundedCache[tuple[int, int], tuple[Machine, Machine]] = \
    BoundedCache("family_member", 256)


def family_machine(
    width: int,
    *,
    base: str | Machine = "power",
    pipe_counts: dict | None = None,
) -> Machine:
    """A ``{base}-w{width}`` machine with width-scaled pipe counts.

    ``base`` names a registered machine (or is one) whose cost table,
    atomic mapping, and memory geometry the family member shares --
    only the unit pipe counts and the dispatch width vary, so a
    calibrated machine gets a width ladder for free.  Each non-
    branch/CRLOGIC unit gets ``max(1, width // 2)`` pipes unless
    ``pipe_counts`` pins a kind explicitly (keys are
    :class:`UnitKind` members or their string values).
    """
    if not isinstance(width, int) or isinstance(width, bool):
        raise ValueError(f"family width must be an int, got {width!r}")
    if not 1 <= width <= MAX_FAMILY_WIDTH:
        raise ValueError(
            f"family width must be in 1..{MAX_FAMILY_WIDTH}, got {width}")
    if isinstance(base, Machine):
        machine = base
    else:
        from .registry import cached_machine

        machine = cached_machine(base)
    key = None
    if not pipe_counts:
        key = (id(machine), width)
        memo = _MEMBER_MEMO.get(key)
        if memo is not None and memo[0] is machine:
            return memo[1]
    pins = {}
    for kind, count in (pipe_counts or {}).items():
        kind = UnitKind(kind) if not isinstance(kind, UnitKind) else kind
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"pipe count for {kind} must be >= 1")
        pins[kind] = count
    default = _pipes_for(width)
    units = tuple(
        unit if unit.kind in _SINGLETON_KINDS and unit.kind not in pins
        else FunctionalUnit(unit.kind, pins.get(unit.kind, default))
        for unit in machine.units
    )
    member = dataclasses.replace(
        machine,
        name=f"{machine.name}-w{width}",
        units=units,
        dispatch_width=width,
    )
    if key is not None:
        _MEMBER_MEMO.put(key, (machine, member))
    return member


def family_width_ladder(widths=None) -> tuple[int, ...]:
    """Validate and normalise a width ladder (sorted, deduplicated)."""
    raw = tuple(widths) if widths else DEFAULT_WIDTH_LADDER
    out = []
    for width in raw:
        if not isinstance(width, int) or isinstance(width, bool):
            raise ValueError(f"sweep widths must be ints, got {width!r}")
        if not 1 <= width <= MAX_FAMILY_WIDTH:
            raise ValueError(
                f"sweep width must be in 1..{MAX_FAMILY_WIDTH}, got {width}")
        out.append(width)
    return tuple(sorted(set(out)))


def penalty_branch_miss(width: int,
                        depth: int = BRANCH_REDIRECT_DEPTH) -> float:
    """Cycles lost per mispredicted branch on a W-wide in-order core."""
    return depth + (width - 1) / (2 * width)


def penalty_cache_miss(width: int, miss_latency: int) -> float:
    """Cycles lost per cache miss (the half-window overlaps the stall)."""
    return max(0.0, miss_latency - (width - 1) / (2 * width))


@dataclass(frozen=True)
class MechanisticTerms:
    """The additive terms of ``T = N/W + pmisses + pll + pdeps``."""

    base: float
    branch_penalty: float
    miss_penalty: float

    @property
    def total(self) -> float:
        return self.base + self.branch_penalty + self.miss_penalty


def mechanistic_cycles(
    machine: Machine,
    instructions: float,
    base_cycles: float,
    *,
    branch_miss_rate: float = 0.0,
    cache_miss_rate: float = 0.0,
) -> MechanisticTerms:
    """Charm-style penalty terms on top of a placement-based estimate.

    ``base_cycles`` already accounts for the N/W term plus dependence
    stalls (the placement covers both); this adds the probabilistic
    branch-misprediction and cache-miss penalties for an instruction
    mix where ``branch_miss_rate`` / ``cache_miss_rate`` are per-
    instruction event rates.
    """
    width = machine.dispatch_width
    branch = instructions * branch_miss_rate * penalty_branch_miss(width)
    miss = instructions * cache_miss_rate * penalty_cache_miss(
        width, machine.memory.cache_miss_cycles)
    return MechanisticTerms(base_cycles, branch, miss)
