"""Stable content hashes for IR programs.

Two flavours:

* :func:`program_digest` hashes the canonical rendering produced by
  :mod:`repro.ir.printer` -- a normal form that erases formatting,
  comments, declaration grouping, and case differences, so two programs
  that are *structurally* equal print identically.  This is the content
  address the service layer uses for its cross-request result cache.

* :func:`stmts_digest` / :func:`node_digest` hash the IR structure
  directly, bottom-up, with a per-node memo.  Transformation search
  probes thousands of program variants that share almost every subtree
  with their parents (the IR is immutable; a rewrite rebuilds only the
  spine to the root), so the memo makes re-digesting a variant cost
  O(changed spine), not O(program) -- unlike printing, which walks the
  whole tree every time.  The transposition table in
  :mod:`repro.transform.search` is keyed this way.

Both flavours are injective over program structure (up to hash
collision), but they are *different* hash spaces: never mix
``program_digest`` and ``stmts_digest`` keys in one table.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Sequence

from ..obs.caches import BoundedCache
from .nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Do,
    FuncCall,
    If,
    IntConst,
    Program,
    RealConst,
    Stmt,
    UnOp,
    VarRef,
)
from .printer import print_program

__all__ = ["program_digest", "source_digest", "stmts_digest", "node_digest"]


def program_digest(program: Program) -> str:
    """Hex SHA-256 of the canonical rendering of ``program``.

    Structurally equal programs (same statements, declarations, and
    name, regardless of source formatting) collide; any structural
    variation -- a renamed index, a reassociated expression, an extra
    statement -- produces a different digest.
    """
    return source_digest(print_program(program))


def source_digest(text: str) -> str:
    """Hex SHA-256 of a source string (no canonicalization applied)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Structural digests (bottom-up, memoized)

#: Memo: id(node) -> (node, digest).  Keeping the node itself in the
#: value pins it alive, so its id can never be recycled while the entry
#: exists -- that is what makes an id-keyed cache sound.  Lookup is
#: O(1); a structural-equality dict would re-hash the whole subtree on
#: every probe, which defeats the point.
_memo: BoundedCache[int, tuple[object, bytes]] = \
    BoundedCache("stmt_digest", 1 << 16)


def _blake(parts: list[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.digest()


def _digest_node(node) -> bytes:
    """16-byte structural digest of one expression or statement."""
    key = id(node)
    hit = _memo.get(key)
    if hit is not None and hit[0] is node:
        return hit[1]

    if isinstance(node, IntConst):
        out = _blake([b"I", str(node.value).encode()])
    elif isinstance(node, RealConst):
        value: Fraction = node.value
        out = _blake([b"R", str(value.numerator).encode(), b"/",
                      str(value.denominator).encode()])
    elif isinstance(node, VarRef):
        out = _blake([b"V", node.name.encode()])
    elif isinstance(node, ArrayRef):
        out = _blake([b"A", node.name.encode()]
                     + [_digest_node(s) for s in node.subscripts])
    elif isinstance(node, BinOp):
        out = _blake([b"B", node.op.encode(),
                      _digest_node(node.left), _digest_node(node.right)])
    elif isinstance(node, UnOp):
        out = _blake([b"U", node.op.encode(), _digest_node(node.operand)])
    elif isinstance(node, FuncCall):
        out = _blake([b"F", node.name.encode()]
                     + [_digest_node(a) for a in node.args])
    elif isinstance(node, Assign):
        out = _blake([b"=", _digest_node(node.target),
                      _digest_node(node.value)])
    elif isinstance(node, Do):
        out = _blake([b"D", node.var.encode(), _digest_node(node.lb),
                      _digest_node(node.ub), _digest_node(node.step)]
                     + [_digest_node(s) for s in node.body])
    elif isinstance(node, If):
        out = _blake([b"?", _digest_node(node.cond), b"t"]
                     + [_digest_node(s) for s in node.then_body]
                     + [b"e"] + [_digest_node(s) for s in node.else_body])
    elif isinstance(node, CallStmt):
        out = _blake([b"C", node.name.encode()]
                     + [_digest_node(a) for a in node.args])
    else:
        raise TypeError(f"cannot digest IR node {node!r}")

    _memo.put(key, (node, out))
    return out


def node_digest(node: Stmt) -> str:
    """Hex structural digest of a single statement or expression."""
    return _digest_node(node).hex()


def stmts_digest(stmts: Sequence[Stmt]) -> str:
    """Hex structural digest of a statement sequence.

    The digest covers statement structure and order only -- not the
    program name, declarations, or parameters, which transformation
    search never changes.  Shared subtrees (the rule, not the
    exception, for transformed variants of one program) are digested
    once and memoized by identity.
    """
    return _blake([b"S"] + [_digest_node(s) for s in stmts]).hex()
