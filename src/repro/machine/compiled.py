"""Per-machine op-cost compilation for the placement fast path.

The placement kernel (``repro.cost.columnar``) must not pay a
``machine.atomic(name)`` dict lookup, a ``cost.noncoverable > 0``
filter, or a ``result_latency`` property walk per instruction: all of
those are invariants of the *machine*, not of the stream being placed.
This module interns every atomic op of a machine into a dense integer
id once per cost-table fingerprint and precomputes, per id:

* the tuple of nonzero-noncoverable components as ``(kind_slot,
  length)`` pairs, in cost-table order (the order legacy
  ``BinSet.place`` fills them in);
* the result latency (``max(noncoverable + coverable)`` over units);

plus, per unit-kind slot, the list of ``(kind, pipe)`` bin ids in
machine order -- the pipe tie-break order of the legacy path.

Compilation is cached by :meth:`Machine.fingerprint`, with an identity
memo in front so the hot path never re-hashes the cost table; training
(:mod:`repro.machine.training`) produces a machine with a new
fingerprint and therefore a fresh compilation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..obs.caches import BoundedCache
from .machine import Machine
from .units import UnitKind

__all__ = ["CompiledOps", "compile_ops", "reset_compiled_ops"]


@dataclass(frozen=True)
class CompiledOps:
    """Dense-id view of one machine's atomic operation cost table."""

    fingerprint: str
    #: atomic op name -> dense id (ids are assigned in sorted-name order,
    #: so equal fingerprints always intern identically).
    index_of: dict[str, int]
    names: tuple[str, ...]
    #: per id: result latency in cycles.
    latency: array
    #: per id: ((kind_slot, noncoverable), ...) for each component with
    #: nonzero noncoverable cost, in cost-table order -- or None when a
    #: noncoverable component needs a unit this machine lacks (placing
    #: such an op raises, exactly as the legacy path's pipe lookup did).
    components: tuple[tuple[tuple[int, int], ...] | None, ...]
    #: unit kinds in machine order; ``kind_slot`` indexes this.
    kinds: tuple[UnitKind, ...]
    #: per kind slot: the (kind, pipe) bin ids, in machine pipe order.
    pipes: tuple[tuple[tuple[UnitKind, int], ...], ...]

    def __len__(self) -> int:
        return len(self.names)


#: fingerprint -> compilation (never stale: the fingerprint covers the
#: whole cost table, unit inventory, and mapping).  Real processes see
#: a handful of machines; randomized test suites see thousands.
_BY_FINGERPRINT: BoundedCache[str, CompiledOps] = \
    BoundedCache("compiled_ops", 256)
#: id(machine) -> (machine, compilation) fast path, so the common case
#: (the same registry-singleton machine over and over) costs one memo
#: probe instead of a cost-table hash.  This is also the process's
#: machine -> fingerprint memo (``compile_ops(m).fingerprint``).
_BY_IDENTITY: BoundedCache[int, tuple[Machine, CompiledOps]] = \
    BoundedCache("compiled_ops_by_id", 64)


def reset_compiled_ops() -> None:
    """Drop all cached compilations (tests)."""
    _BY_FINGERPRINT.clear()
    _BY_IDENTITY.clear()


def compile_ops(machine: Machine, fingerprint: str | None = None) -> CompiledOps:
    """The per-machine compilation, memoized by cost-table fingerprint."""
    memo = _BY_IDENTITY.get(id(machine))
    if memo is not None and memo[0] is machine:
        return memo[1]
    if fingerprint is None:
        fingerprint = machine.fingerprint()
    compiled = _BY_FINGERPRINT.get(fingerprint)
    if compiled is None:
        compiled = _compile(machine, fingerprint)
        _BY_FINGERPRINT.put(fingerprint, compiled)
    _BY_IDENTITY.put(id(machine), (machine, compiled))
    return compiled


def _compile(machine: Machine, fingerprint: str) -> CompiledOps:
    kinds = tuple(u.kind for u in machine.units)
    kind_slot = {kind: slot for slot, kind in enumerate(kinds)}
    pipes = tuple(
        tuple((u.kind, i) for i in range(u.count)) for u in machine.units
    )
    names = tuple(machine.table.names())
    index_of = {name: i for i, name in enumerate(names)}
    latency = array("q", bytes(0))
    components: list[tuple[tuple[int, int], ...] | None] = []
    for name in names:
        op = machine.table[name]
        latency.append(op.result_latency)
        needed = [c for c in op.costs if c.noncoverable > 0]
        if any(c.unit not in kind_slot for c in needed):
            components.append(None)
        else:
            components.append(tuple(
                (kind_slot[c.unit], c.noncoverable) for c in needed
            ))
    return CompiledOps(
        fingerprint=fingerprint,
        index_of=index_of,
        names=names,
        latency=latency,
        components=tuple(components),
        kinds=kinds,
        pipes=pipes,
    )
