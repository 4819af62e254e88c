"""Tests for symbolic trip counts and nest discovery."""

import gc
from fractions import Fraction

import pytest

from repro.analysis import expression_poly, perfect_nest, trip_count
from repro.ir import parse_expression, parse_fragment
from repro.symbolic import Poly


def _loop(src):
    (loop,) = parse_fragment(src)
    return loop


def test_expression_poly_basics():
    poly, unknowns = expression_poly(parse_expression("n"))
    assert poly == Poly.var("n")
    assert "n" in unknowns
    poly, _ = expression_poly(parse_expression("2*n + 1"))
    assert poly == 2 * Poly.var("n") + 1
    poly, _ = expression_poly(parse_expression("n - m"))
    assert poly == Poly.var("n") - Poly.var("m")
    poly, _ = expression_poly(parse_expression("-n"))
    assert poly == -Poly.var("n")


def test_expression_poly_division_and_power():
    poly, _ = expression_poly(parse_expression("n / 2"))
    assert poly == Fraction(1, 2) * Poly.var("n")
    poly, _ = expression_poly(parse_expression("n ** 2"))
    assert poly == Poly.var("n") ** 2
    poly, _ = expression_poly(parse_expression("m / n"))
    assert poly == Poly.var("m") / Poly.var("n")


def test_expression_poly_opaque_fallback():
    poly, unknowns = expression_poly(parse_expression("idx(i)"))
    assert len(poly.variables()) == 1
    (name,) = poly.variables()
    assert name.startswith("u_")
    assert unknowns[name].description == "idx(i)"
    # Division by a sum is also opaque.
    poly2, _ = expression_poly(parse_expression("m / (n + 1)"))
    assert any(v.startswith("u_") for v in poly2.variables())


def test_trip_count_constant():
    assert trip_count(_loop("do i = 1, 10\n x = 1\nend do\n")).constant_value() == 10
    assert trip_count(_loop("do i = 1, 10, 2\n x = 1\nend do\n")).constant_value() == 5
    assert trip_count(_loop("do i = 1, 10, 3\n x = 1\nend do\n")).constant_value() == 4
    assert trip_count(_loop("do i = 10, 1\n x = 1\nend do\n")).constant_value() == 0
    assert trip_count(_loop("do i = 5, 5\n x = 1\nend do\n")).constant_value() == 1


def test_trip_count_negative_step():
    assert trip_count(_loop("do i = 10, 1, -1\n x = 1\nend do\n")).constant_value() == 10
    assert trip_count(_loop("do i = 10, 1, -3\n x = 1\nend do\n")).constant_value() == 4


def test_trip_count_zero_step_rejected():
    with pytest.raises(ValueError):
        trip_count(_loop("do i = 1, 10, 0\n x = 1\nend do\n"))


def test_trip_count_symbolic():
    count = trip_count(_loop("do i = 1, n\n x = 1\nend do\n"))
    assert count.poly == Poly.var("n")
    count2 = trip_count(_loop("do i = lb, ub\n x = 1\nend do\n"))
    assert count2.poly == Poly.var("ub") - Poly.var("lb") + 1
    count3 = trip_count(_loop("do i = 1, n, 2\n x = 1\nend do\n"))
    assert count3.poly == (Poly.var("n") + 1) / 2


def test_trip_count_symbolic_step_laurent():
    count = trip_count(_loop("do i = 1, n, s\n x = 1\nend do\n"))
    # (n - 1 + s)/s = (n-1)/s + 1 as a Laurent polynomial.
    n, s = Poly.var("n"), Poly.var("s")
    assert count.poly == (n - 1) / s + 1


def test_trip_count_bounds_nonnegative_for_simple_var():
    count = trip_count(_loop("do i = 1, n\n x = 1\nend do\n"))
    assert count.bounds["n"].nonneg()


def test_perfect_nest():
    loop = _loop(
        """
do i = 1, n
  do j = 1, m
    do k = 1, p
      c(i,j) = c(i,j) + a(i,k) * b(k,j)
    end do
  end do
end do
"""
    )
    nest = perfect_nest(loop)
    assert [info.index for info in nest] == ["i", "j", "k"]
    assert [info.depth for info in nest] == [0, 1, 2]


def test_imperfect_nest_stops():
    loop = _loop(
        """
do i = 1, n
  x = 0.0
  do j = 1, m
    x = x + a(i,j)
  end do
end do
"""
    )
    nest = perfect_nest(loop)
    assert len(nest) == 1


def test_trip_count_leaves_no_reference_cycles():
    # Every object a trip count builds must be freed by reference
    # counting alone; a cycle would wait for the cyclic collector.
    loops = [_loop(f"do i = lb, n{k} / 2\n  x = idx(i)\nend do\n")
             for k in range(10)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for loop in loops:
            trip_count(loop)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
