from fractions import Fraction

import pytest

from fescroll.bundle_family import FamilyParams, build_split, iter_valid_params, sym_chi
from fescroll.errors import ConsistencyError
from fescroll.member import Member
from fescroll.scroll_invariants import RationalCubic


@pytest.mark.parametrize(
    "e,b,t,n,d",
    [(2, 7, 0, 51, 91), (0, 3, 0, 33, 55), (1, 5, 0, 42, 73), (0, 5, 2, 45, 79)],
)
def test_embedding_dimension_and_degree_spots(e, b, t, n, d):
    m = Member(FamilyParams(e, b, t))
    assert m.n == n
    assert m.d == d


def test_dimension_and_degree_closed_forms():
    for p in iter_valid_params(4, 6):
        m = Member(p)
        assert m.n == 5 * p.e + 2 * p.b + 4 * p.t + 27
        assert m.d == 8 * p.e + 5 * p.b + 7 * p.t + 40


def test_hilbert_polynomial_coefficients():
    poly = Member(FamilyParams(2, 7, 0)).hilbert_poly
    assert poly.to_pairs() == [[1, 1], [65, 6], [25, 1], [91, 6]]
    poly0 = Member(FamilyParams(0, 3, 0)).hilbert_poly
    assert (poly0.c0, poly0.c1, poly0.c2, poly0.c3) == (
        Fraction(1),
        Fraction(47, 6),
        Fraction(16),
        Fraction(55, 6),
    )


def test_hilbert_polynomial_normalization():
    for p in iter_valid_params(3, 3):
        m = Member(p)
        poly = m.hilbert_poly
        assert poly.value_at(0) == 1
        assert poly.value_at(1) == m.n + 1


def test_hilbert_polynomial_matches_sym_chi_beyond_internal_range():
    # the constructor checks m in [0, 8]; push further here
    for e, b, t in [(2, 7, 0), (0, 3, 0), (1, 5, 0), (4, 10, 6)]:
        p = FamilyParams(e, b, t)
        poly = Member(p).hilbert_poly
        bun = build_split(p)
        for m in range(0, 13):
            assert poly.value_at(m) == sym_chi(bun, m)


@pytest.mark.parametrize(
    "e,b,t,h0", [(2, 7, 0, 52), (0, 3, 0, 34), (1, 5, 0, 43)]
)
def test_vanishing_report(e, b, t, h0):
    assert Member(FamilyParams(e, b, t)).h_of_L == (h0, 0, 0, 0)


def test_scroll_report_bundles_everything():
    p = FamilyParams(2, 7, 0)
    report = Member(p)
    assert report.params == p
    assert report.n == 51
    assert report.d == 91
    assert report.h_of_L == (52, 0, 0, 0)
    assert report.hilbert_poly.value_at(1) == 52


def test_rational_cubic_rejects_non_integral():
    with pytest.raises(ConsistencyError, match="not integer-valued"):
        RationalCubic(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(ConsistencyError):
        RationalCubic(Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0))


def test_rational_cubic_accepts_binomial_type():
    # m(m+1)/2 is integral on the integers despite fractional coefficients
    poly = RationalCubic(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert poly.value_at(4) == 10
    assert poly(-3) == Fraction(3)
    assert poly.to_pairs() == [[0, 1], [1, 2], [1, 2], [0, 1]]


def test_rational_cubic_pretty():
    poly = RationalCubic(Fraction(1), Fraction(65, 6), Fraction(25), Fraction(91, 6))
    text = poly.pretty()
    assert "65/6" in text and "91/6" in text and "m^3" in text
