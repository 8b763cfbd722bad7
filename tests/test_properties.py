from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fescroll import chow_ring
from fescroll.bundle_family import (
    FamilyParams,
    build_split,
    chern,
    invariant_r,
    sym_chi,
)
from fescroll.chow_ring import (
    XI,
    ChowClass,
    ScrollContext,
    _read_numbers,
    canonical_class_X,
    chern_TX,
    degree,
    multiply,
    prod,
)
from fescroll.errors import ConsistencyError
from fescroll.member import Member
from fescroll.scroll_invariants import BinomialCubic
from fescroll.surface_lattice import (
    DivisorClass,
    _h0_fiberwise,
    _h1_fiberwise,
    canonical_class,
    cohomology,
    h0_lattice_oracle,
    intersect,
    pushforward_degrees,
)
from fescroll.verify import _is_threshold

surfaces = st.integers(min_value=0, max_value=6)  # F_e, as its integer e
classes = st.builds(
    DivisorClass,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
small_classes = st.builds(
    DivisorClass,
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=-15, max_value=15),
)


@st.composite
def family_params(draw):
    e = draw(st.integers(min_value=0, max_value=4))
    t = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=e + t + 3))
    return FamilyParams(e, e + k, t)


coefficients = st.integers(min_value=-9, max_value=9)
chow_classes = st.builds(ChowClass, *[coefficients] * 8)


@st.composite
def scroll_contexts(draw):
    """A member's context, or one with arbitrary c1 and c2: the ring relations hold for any."""
    params = draw(family_params())
    if draw(st.booleans()):
        return Member(params).ctx
    return ScrollContext(params.e, draw(small_classes), draw(st.integers(-30, 30)))


@given(surfaces, classes, classes, classes, st.integers(-7, 7))
def test_pairing_symmetric_bilinear(e, d1, d2, d3, k):
    assert intersect(e, d1, d2) == intersect(e, d2, d1)
    assert intersect(e, d1 + k * d2, d3) == intersect(e, d1, d3) + k * intersect(e, d2, d3)


@given(surfaces, classes)
def test_serre_involution(e, d):
    k = canonical_class(e)
    tab = cohomology(e, d)
    dual = cohomology(e, k - d)
    assert (tab.h0, tab.h1, tab.h2) == (dual.h2, dual.h1, dual.h0)


@given(surfaces, classes)
def test_riemann_roch_holds(e, d):
    pairing = intersect(e, d, d - canonical_class(e))
    assert pairing % 2 == 0
    assert cohomology(e, d).chi == 1 + pairing // 2


@given(surfaces, small_classes)
def test_h0_equals_lattice_count(e, d):
    assert cohomology(e, d).h0 == h0_lattice_oracle(e, d)


@given(
    st.integers(min_value=0, max_value=8),
    st.builds(DivisorClass, st.integers(-300, 300), st.integers(-300, 300)),
)
def test_closed_form_sums_match_pushforward(e, d):
    if d.a < 0:
        assert _h0_fiberwise(e, d.a, d.c) == 0
        return
    degrees = pushforward_degrees(e, d)
    assert _h0_fiberwise(e, d.a, d.c) == sum(max(0, deg + 1) for deg in degrees)
    assert _h1_fiberwise(e, d.a, d.c) == sum(max(0, -deg - 1) for deg in degrees)


@st.composite
def wide_family_params(draw):
    e = draw(st.integers(min_value=0, max_value=8))
    t = draw(st.integers(min_value=0, max_value=200))
    b = draw(st.integers(min_value=e, max_value=2 * e + 3 + t))
    return FamilyParams(e, b, t)


@settings(deadline=None)
@given(wide_family_params(), st.sampled_from((1, 2, 3)))
def test_invariant_r_matches_scan(params, d1):
    # h^0 from cohomology() vanishes one fiber twist past r and not at r, which
    # is what a scan over the twists finds, as h^0 is monotone in the twist
    assert _is_threshold(Member(params), d1, invariant_r(build_split(params), d1))


@given(surfaces, st.integers(0, 6), st.integers(-20, 19))
def test_h0_monotone_in_fiber_twist(e, a, c):
    lower = cohomology(e, DivisorClass(a, c)).h0
    upper = cohomology(e, DivisorClass(a, c + 1)).h0
    assert upper >= lower


@given(family_params(), chow_classes, chow_classes, chow_classes)
def test_chow_ring_axioms(params, x, y, z):
    ctx = Member(params).ctx
    assert multiply(ctx, x, y) == multiply(ctx, y, x)
    assert multiply(ctx, multiply(ctx, x, y), z) == multiply(ctx, x, multiply(ctx, y, z))
    assert multiply(ctx, x, y + z) == multiply(ctx, x, y) + multiply(ctx, x, z)


@given(scroll_contexts())
def test_the_seven_numbers_read_off_k_x_are_its_pairings(ctx):
    # for any c1 and c2, not only a member's: each number is the degree of the
    # full product of L = xi, K_X and the Chern classes of T_X in the ring
    tangent = chern_TX(ctx)
    c1x, c2x, c3x = tangent
    k = -c1x
    factors = ((XI, XI, XI), (k, XI, XI), (k, k, XI), (k, k, k), (XI, c2x), (k, c2x), (c3x,))
    by_ring = tuple(degree(prod(ctx, *product)) for product in factors)
    assert _read_numbers(ctx, tangent) == by_ring


@given(scroll_contexts(), st.sampled_from((0, 1, 2, 3, 7)), coefficients.filter(bool))
def test_the_reader_rejects_a_c2_that_is_not_a_curve_class(ctx, slot, k):
    # a term in z, xi, h1, h2 or pt of c2(T_X) comes only from a wrong formula
    c1x, c2x, c3x = chern_TX(ctx)
    coeffs = list(c2x)
    coeffs[slot] += k
    with pytest.raises(ConsistencyError, match="not a curve class"):
        _read_numbers(ctx, (c1x, ChowClass(*coeffs), c3x))


@given(scroll_contexts(), st.sampled_from((0, 4, 5, 6, 7)), coefficients.filter(bool))
def test_chern_tx_keeps_c1_a_divisor_class(ctx, slot, k):
    # _read_numbers reads K_X = -c1(T_X) off its xi, h1 and h2 slots alone; chern_TX
    # compares c1(T_X) whole with -K_X, so a term in z, xi*h1, xi*h2, pt' or pt stops it
    c1x = chern_TX(ctx)[0]
    assert c1x == -canonical_class_X(ctx)
    assert not any(c1x[s] for s in (0, 4, 5, 6, 7))
    coeffs = list(canonical_class_X(ctx))
    coeffs[slot] += k
    with mock.patch.object(chow_ring, "canonical_class_X", lambda _ctx: ChowClass(*coeffs)):
        with pytest.raises(ConsistencyError, match=r"c1\(T_X\) != -K_X"):
            chern_TX(ctx)


def _monomial_value(poly, m):
    return sum(Fraction(num, den) * m ** k for k, (num, den) in enumerate(poly.to_pairs()))


@settings(max_examples=40, deadline=None)
@given(family_params(), st.integers(-50, 50))
def test_hilbert_polynomial_integral(params, m):
    poly = Member(params).hilbert_poly
    assert all(type(p) is int for p in poly)
    assert poly.value_at(m) == _monomial_value(poly, m)


@settings(max_examples=40, deadline=None)
@given(family_params(), st.integers(0, 12))
def test_hilbert_polynomial_counts_sections(params, m):
    poly = Member(params).hilbert_poly
    assert poly.value_at(m) == sym_chi(build_split(params), m)


@given(st.builds(BinomialCubic, *(st.integers() for _ in range(4))),
       st.integers(-10**6, 10**6))
def test_binomial_cubic_value_matches_its_printed_coefficients(poly, m):
    # value_at sums the binomial basis in integers; the printed monomial
    # coefficients are exact rationals, evaluated here in Fractions
    value = poly.value_at(m)
    assert type(value) is int
    assert value == _monomial_value(poly, m)


def _fraction_monomial(poly):
    """The coefficients of 1, m, m^2, m^3 as Fractions, as the printer once held them."""
    p0, p1, p2, p3 = poly
    return (Fraction(p0), Fraction(6 * p1 - 3 * p2 + 2 * p3, 6),
            Fraction(p2 - p3, 2), Fraction(p3, 6))


def _fraction_pretty(poly):
    """The printer as it was on Fractions, the oracle of the integer one."""
    terms = []
    for power, coeff in enumerate(_fraction_monomial(poly)):
        if coeff == 0:
            continue
        mono = "" if power == 0 else ("m" if power == 1 else f"m^{power}")
        body = str(coeff) if not mono else (
            mono if coeff == 1 else f"({coeff})*{mono}" if coeff.denominator != 1
            else f"{coeff}*{mono}"
        )
        terms.append(body)
    return " + ".join(terms) if terms else "0"


binomial_coefficients = (st.sampled_from([0, 1, -1]) | st.integers(-10**40, 10**40)
                         | st.integers())


@given(st.builds(BinomialCubic, *(binomial_coefficients for _ in range(4))))
def test_integer_printing_matches_the_fraction_printer(poly):
    assert poly.to_pairs() == [[coeff.numerator, coeff.denominator]
                               for coeff in _fraction_monomial(poly)]
    assert poly.pretty() == _fraction_pretty(poly)


@settings(max_examples=40, deadline=None)
@given(family_params())
def test_chi_normal_closed_form(params):
    e, b, t = params.e, params.b, params.t
    n = 5 * e + 2 * b + 4 * t + 27
    d = 8 * e + 5 * b + 7 * t + 40
    want = (d - 3 * e - 3 * b - 3 * t - 12) * n + 122 + 21 * t + 21 * e + 21 * b - 3 * d
    assert Member(params).chi_N == want


@given(family_params())
def test_flags_match_windows(params):
    flags = Member(params).flags  # raises ConsistencyError on any mismatch
    assert flags.paper_regime == (params.e <= 2 and params.b == 2 * params.e + 3 + params.t)
    assert flags.v1 == (params.b < 6 + params.t + params.e)
    assert flags.v3 == (params.b <= 2 * params.e + 3 + params.t)


@given(family_params())
def test_chern_data_consistent(params):
    bun = build_split(params)
    data = chern(params, bun)  # internally cross-asserts the three presentations
    assert data.c1 == bun.A + bun.B
    assert data.c2 == intersect(params.e, bun.A, bun.B)
