"""Stable content hashes for IR programs.

Two flavours:

* :func:`program_digest` hashes the canonical rendering produced by
  :mod:`repro.ir.printer` -- a normal form that erases formatting,
  comments, declaration grouping, and case differences, so two programs
  that are *structurally* equal print identically.  This is the content
  address the service layer uses for its cross-request result cache.

* :func:`stmts_digest` / :func:`node_digest` hash the IR structure
  directly, bottom-up, and each node keeps its 16-byte digest on
  itself.  Transformation search probes thousands of program variants
  that share almost every subtree with their parents (the IR is
  immutable; a rewrite rebuilds only the spine to the root), so
  re-digesting a variant costs O(changed spine), not O(program) --
  unlike printing, which walks the whole tree every time.  The digest
  lives and dies with its node: no table pins dead candidates, and a
  pickled node carries its digest into the process that unpickles it.
  The transposition table in :mod:`repro.transform.search` is keyed
  this way.

Both flavours are injective over program structure (up to hash
collision), but they are *different* hash spaces: never mix
``program_digest`` and ``stmts_digest`` keys in one table.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Sequence

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
# Structural digests (bottom-up, kept on the nodes)

#: Instance attribute holding a node's digest once computed.  It is not
#: a dataclass field, so equality, hashing and ``repr`` ignore it; it is
#: deterministic bytes, so threads racing on one node write one value.
_ATTR = "_digest"


def _blake(parts: list[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.digest()


def _digest_node(node) -> bytes:
    """16-byte structural digest of one expression or statement."""
    out = getattr(node, _ATTR, None)
    if out is not None:
        return out

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

    object.__setattr__(node, _ATTR, out)   # nodes are frozen dataclasses
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
    once: each node keeps its digest.
    """
    return _blake([b"S"] + [_digest_node(s) for s in stmts]).hex()
