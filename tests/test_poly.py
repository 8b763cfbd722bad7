"""Poly against int arithmetic: random +, -, * expressions over three
variables, integers and bools, evaluated as polynomials and then at a
point, agree with the same expressions evaluated on integers at that
point, and so do divmod by an int where it divides and the tests'
substitution helper, conftest._substitute.  Int arithmetic at a point is
the oracle.  Every Poly result is built by the normalising constructor
Poly(pairs), its only path; each operator is still checked against it, so
a faster path added later must pass too."""

import math
import operator

import pytest
from conftest import _substitute
from hypothesis import given, strategies as st

from fescroll.errors import ConsistencyError, exact_div
from fescroll.poly import Poly

VARIABLES = ("x", "y", "z")
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}

expressions = st.recursive(
    st.sampled_from(VARIABLES) | st.integers(-20, 20) | st.booleans(),
    lambda inner: st.tuples(st.sampled_from(sorted(OPERATORS)), inner, inner),
    max_leaves=12,
)
points = st.fixed_dictionaries({name: st.integers(-50, 50) for name in VARIABLES})


def evaluate(expr, values):
    """expr with each variable name replaced by values[name]."""
    if isinstance(expr, tuple):
        op, left, right = expr
        return OPERATORS[op](evaluate(left, values), evaluate(right, values))
    return values[expr] if isinstance(expr, str) else expr


def at(poly, point):
    return sum(c * math.prod(point[name] for name in mono) for mono, c in poly.terms.items())


SYMBOLS = {name: Poly.var(name) for name in VARIABLES}


@given(expressions, points)
def test_poly_evaluates_like_int_arithmetic(expr, point):
    poly = Poly([]) + evaluate(expr, SYMBOLS)  # a bare integer leaf becomes a Poly
    assert at(poly, point) == evaluate(expr, point)
    assert all(poly.terms.values())  # no zero coefficient is stored
    assert all(type(c) is int for c in poly.terms.values())  # a bool adds as an int
    assert all(list(mono) == sorted(mono) for mono in poly.terms)


@given(expressions, st.integers(-20, 20))
def test_poly_equals_an_int_exactly_when_it_is_that_constant(expr, k):
    poly = Poly([]) + evaluate(expr, SYMBOLS)
    constant = set(poly.terms) <= {()}
    value = poly.terms.get((), 0)
    assert (poly == k) == (k == poly) == (constant and value == k)
    assert (poly != k) == (not (poly == k))
    assert (poly - poly == 0) and not (poly - poly != 0)
    assert bool(poly) == (poly != 0)


def test_poly_cancels_and_keeps_no_zero_coefficient():
    x, y = Poly.var("x"), Poly.var("y")
    assert x * y - y * x == 0
    assert (x * y - y * x).terms == {}
    assert (x + 1) * (x - 1) == x * x - 1
    assert ((x + y) * (x - y) - x * x).terms == {("y", "y"): -1}
    assert 3 - x + x == 3 and 2 * x != x + 2
    assert x != y and x != "x"


def as_poly(expr):
    return Poly([]) + evaluate(expr, SYMBOLS)


@given(expressions, expressions, st.integers(-20, 20) | st.just(0) | st.booleans())
def test_arithmetic_matches_the_normalising_constructor(left, right, k):
    a, b = as_poly(left), as_poly(right)
    before = dict(a.terms), dict(b.terms)
    neg_b = [(mono, -c) for mono, c in b.terms.items()]
    assert (a + b).terms == Poly([*a.terms.items(), *b.terms.items()]).terms
    assert (a - b).terms == Poly([*a.terms.items(), *neg_b]).terms
    assert (a * b).terms == Poly((tuple(sorted(m1 + m2)), c1 * c2)
                                 for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()).terms
    assert (a * k).terms == (k * a).terms == Poly((mono, c * k) for mono, c in a.terms.items()).terms
    assert (a + k).terms == (k + a).terms == Poly([*a.terms.items(), ((), k)]).terms
    assert (a - k).terms == Poly([*a.terms.items(), ((), -k)]).terms
    assert (k - a).terms == Poly([((), k), *((mono, -c) for mono, c in a.terms.items())]).terms
    assert (-a).terms == Poly((mono, -c) for mono, c in a.terms.items()).terms
    assert (dict(a.terms), dict(b.terms)) == before  # no operation mutates an operand


def test_bool_operands_act_as_the_ints_they_equal():
    x = Poly.var("x")
    assert x * True == x and (x * False).terms == {}
    assert Poly([]) + False == 0 and (Poly([]) + False).terms == {}
    assert repr(Poly([]) + True) == "1" and repr(x - True) == "-1 + 1*x"
    assert x == x + False and x != x + True and Poly([]) + True == True


def test_a_float_operand_raises():
    # the proofs are over the integers, so a float never becomes a coefficient
    x = Poly.var("x")
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, 0.5), (0.5, x)):
            with pytest.raises(TypeError):
                op(left, right)
    assert x != 1.0 and Poly([]) + 1 != 1.0


def test_the_constructor_sorts_each_monomial():
    x, y = Poly.var("x"), Poly.var("y")
    assert Poly([(("y", "x"), 1)]) == x * y
    assert Poly([(("y", "x"), 1), (("x", "y"), -1)]).terms == {}


@given(expressions, points)
def test_substitute_sets_ints_like_int_arithmetic(expr, point):
    poly = as_poly(expr)
    constant = _substitute(poly, point)
    assert set(constant.terms) <= {()} and constant == at(poly, point)
    # x first, then y and z, reaches the same constant
    partial = _substitute(poly, {"x": point["x"]})
    assert all("x" not in mono for mono in partial.terms)
    assert _substitute(partial, {"y": point["y"], "z": point["z"]}) == constant
    for result in (constant, partial):
        assert all(type(c) is int and c for c in result.terms.values())
        assert all(list(mono) == sorted(mono) for mono in result.terms)


@given(expressions, st.integers(-12, 12).filter(bool), points)
def test_divmod_by_an_int_matches_int_arithmetic(expr, k, point):
    poly = as_poly(expr)
    quotient, remainder = divmod(poly, k)
    assert quotient * k + remainder == poly
    # each remainder coefficient is that of int divmod, so zero exactly
    # when k divides its coefficient
    assert remainder.terms == {mono: c % k for mono, c in poly.terms.items() if c % k}
    assert all(quotient.terms.values()) and all(type(c) is int for c in quotient.terms.values())
    # a multiple of k divides exactly, and its quotient evaluates like int division
    multiple = poly * k
    quotient, remainder = divmod(multiple, k)
    assert remainder == 0 and quotient == poly
    assert at(quotient, point) == at(multiple, point) // k


def test_exact_div_of_a_poly_raises_unless_every_coefficient_divides():
    x = Poly.var("x")
    assert exact_div(12 * x * x - 24, 12, "p") == x * x - 2
    with pytest.raises(ConsistencyError, match=r"^p not an integer: -24 \+ 6\*x\*x/12$"):
        exact_div(6 * x * x - 24, 12, "p")
    with pytest.raises(TypeError):
        divmod(x, x)  # only by an int
