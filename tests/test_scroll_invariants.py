import pytest

from fescroll.bundle_family import FamilyParams, build_split, iter_valid_params, sym_chi
from fescroll.errors import ConsistencyError
from fescroll.member import Member
from fescroll.scroll_invariants import BinomialCubic, hilbert_polynomial


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
    assert poly == BinomialCubic(p0=1, p1=51, p2=141, p3=91)
    poly0 = Member(FamilyParams(0, 3, 0)).hilbert_poly
    assert poly0 == BinomialCubic(p0=1, p1=33, p2=87, p3=55)
    assert poly0.to_pairs() == [[1, 1], [47, 6], [16, 1], [55, 6]]


def test_hilbert_polynomial_normalization():
    for p in iter_valid_params(3, 3):
        m = Member(p)
        poly = m.hilbert_poly
        assert poly.value_at(0) == 1
        assert poly.value_at(1) == m.n + 1


def test_hilbert_polynomial_matches_sym_chi_beyond_internal_range():
    # the constructor checks m in [0, 8]; push further here.  P(m) =
    # chi(Sym^m E) for every m >= 0 (Hartshorne III Ex. 8.4), and both
    # sides are O(1) in m
    for e, b, t in [(2, 7, 0), (0, 3, 0), (1, 5, 0), (4, 10, 6), (60, 100, 3000)]:
        p = FamilyParams(e, b, t)
        poly = Member(p).hilbert_poly
        bun = build_split(p)
        for m in (*range(0, 13), 10**40):
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


@pytest.mark.parametrize("bump, message", [
    # one more on c2.L moves p1's total by 1
    ({"c2L": 1}, "P(m) coefficient p1 not an integer: 613/12"),
    # one less on K.L^2 makes it odd; three less on K^2.L keeps p1's total
    ({"KL2": -1, "K2L": -3}, "P(m) coefficient p2 not an integer: -101/2"),
])
def test_hilbert_polynomial_rejects_a_non_integral_coefficient(bump, message):
    m = Member(FamilyParams(2, 7, 0))
    nums = m.intersection_numbers
    assert hilbert_polynomial(m.params, m.split, nums) == m.hilbert_poly
    bumped = nums._replace(**{name: getattr(nums, name) + k for name, k in bump.items()})
    with pytest.raises(ConsistencyError) as exc:
        hilbert_polynomial(m.params, m.split, bumped)
    assert str(exc.value) == message


def test_binomial_cubic_of_an_integer_valued_cubic_with_fractional_monomials():
    # m(m+1)/2 = m + C(m, 2)
    poly = BinomialCubic(0, 1, 1, 0)
    assert poly.value_at(4) == 10
    assert poly.value_at(-3) == 3
    assert poly.to_pairs() == [[0, 1], [1, 2], [1, 2], [0, 1]]
    assert poly.pretty() == "(1/2)*m + (1/2)*m^2"


def test_binomial_cubic_pretty():
    text = BinomialCubic(1, 51, 141, 91).pretty()
    assert text == "1 + (65/6)*m + 25*m^2 + (91/6)*m^3"
