"""Loop analysis: symbolic trip counts and nest structure.

The cost of ``do k = lb, ub, step`` sums the body over the iteration
set (paper section 2.4.1); when bounds are unknown the iteration count
becomes a symbolic expression ``(ub - lb + step) / step`` whose
variables join the performance expression's unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..ir.nodes import BinOp, Do, Expr, IntConst, RealConst, Stmt, UnOp, VarRef
from ..symbolic.expr import Interval, PerfExpr, Unknown, UnknownKind
from ..symbolic.poly import Poly

__all__ = ["expression_poly", "trip_count", "perfect_nest", "LoopInfo"]


def expression_poly(expr: Expr) -> tuple[Poly, dict[str, Unknown]]:
    """Best-effort conversion of an IR expression to an exact polynomial.

    Scalars become symbolic variables (the paper's unknowns); integer
    arithmetic maps directly; division maps when the divisor is a
    constant or a single variable (Laurent term); anything else --
    array references, calls, comparisons -- becomes a fresh opaque
    unknown named after the expression text, preserving soundness of
    "treat unknowns as variables".
    """
    unknowns: dict[str, Unknown] = {}
    return _convert(expr, unknowns), unknowns


def _convert(node: Expr, unknowns: dict[str, Unknown]) -> Poly:
    # Module level, not a closure: a recursive closure is a reference
    # cycle that only the cyclic collector frees.
    if isinstance(node, IntConst):
        return Poly.const(node.value)
    if isinstance(node, RealConst):
        return Poly.const(Fraction(node.value))
    if isinstance(node, VarRef):
        unknowns.setdefault(
            node.name, Unknown(node.name, UnknownKind.LOOP_BOUND)
        )
        return Poly.var(node.name)
    if isinstance(node, UnOp) and node.op == "-":
        return -_convert(node.operand, unknowns)
    if isinstance(node, BinOp):
        if node.op == "+":
            return _convert(node.left, unknowns) + _convert(node.right, unknowns)
        if node.op == "-":
            return _convert(node.left, unknowns) - _convert(node.right, unknowns)
        if node.op == "*":
            return _convert(node.left, unknowns) * _convert(node.right, unknowns)
        if node.op == "/":
            right = _convert(node.right, unknowns)
            if len(right.terms) == 1:
                return _convert(node.left, unknowns) / right
        if node.op == "**" and isinstance(node.right, IntConst):
            if node.right.value >= 0:
                return _convert(node.left, unknowns) ** node.right.value
    # Opaque: a fresh unknown named after the expression text.
    name = f"u_{_slug(str(node))}"
    unknowns.setdefault(
        name, Unknown(name, UnknownKind.PARAMETER, description=str(node))
    )
    return Poly.var(name)


def _slug(text: str) -> str:
    keep = [c if c.isalnum() else "_" for c in text]
    slug = "".join(keep).strip("_")
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug or "expr"


def trip_count(loop: Do) -> PerfExpr:
    """Symbolic iteration count of a DO loop.

    Exact for the common cases: constant bounds evaluate numerically
    (clamped at zero), symbolic bounds give the polynomial
    ``(ub - lb + step) / step`` with trip-count bounds ``>= 0`` attached.
    """
    lb_poly, lb_unknowns = expression_poly(loop.lb)
    ub_poly, ub_unknowns = expression_poly(loop.ub)
    step_poly, step_unknowns = expression_poly(loop.step)

    if lb_poly.is_constant() and ub_poly.is_constant() and step_poly.is_constant():
        lb, ub, step = (
            lb_poly.constant_value(),
            ub_poly.constant_value(),
            step_poly.constant_value(),
        )
        if step == 0:
            raise ValueError("zero loop step")
        trips = (ub - lb + step) / step
        # Fortran trip count: floor, clamped at zero.
        count = max(0, int(trips // 1))
        return PerfExpr.const(count)

    count_poly = (ub_poly - lb_poly + step_poly) / step_poly \
        if len(step_poly.terms) == 1 else _general_trip(ub_poly, lb_poly, step_poly)
    unknowns = {**lb_unknowns, **ub_unknowns, **step_unknowns}
    bounds = {name: u.default_interval() for name, u in unknowns.items()}
    expr = PerfExpr(count_poly, bounds, unknowns)
    # A trip count is never negative; record that for sign reasoning on
    # the count itself when it is a single fresh variable.
    if len(count_poly.terms) == 1 and not count_poly.is_constant():
        variables = count_poly.variables()
        if len(variables) == 1:
            (var,) = variables
            expr = expr.with_bound(var, _nonneg(expr.bounds.get(var)))
    return expr


def _general_trip(ub: Poly, lb: Poly, step: Poly) -> Poly:
    """Non-monomial step: introduce an opaque trip-count unknown."""
    name = f"trips_{_slug(str(ub - lb))}"
    return Poly.var(name)


def _nonneg(existing: Interval | None) -> Interval:
    base = Interval.nonnegative()
    if existing is None:
        return base
    merged = existing.intersect(base)
    return merged if merged is not None else base


@dataclass
class LoopInfo:
    """One loop of a perfect nest, outermost first."""

    loop: Do
    depth: int
    index: str


def perfect_nest(loop: Do) -> list[LoopInfo]:
    """The perfect nest rooted at ``loop``.

    Returns [outer, ..., innermost]; the nest ends at the first loop
    whose body is not exactly one nested DO.
    """
    nest: list[LoopInfo] = []
    current: Stmt = loop
    depth = 0
    while isinstance(current, Do):
        nest.append(LoopInfo(current, depth, current.var))
        if len(current.body) == 1 and isinstance(current.body[0], Do):
            current = current.body[0]
            depth += 1
        else:
            break
    return nest
