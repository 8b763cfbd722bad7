"""Projective invariants of the embedded threefold scroll.

The sections of E embed X = P(E) in P^n with n = h^0(E) - 1 and degree
d = c1^2 - c2 (deg xi^3 = L^3 in intersection_numbers() is its second
route).  The Hilbert polynomial comes from Riemann-Roch on X,

    P(m) = (m^3/6) L^3 - (m^2/4) L^2.K + (m/12) L.(K^2 + c2) + 1,

held by its integer coefficients in the binomial basis and cross-checked
against the independent oracle chi(Sym^m E) for m in [0, 8] on every
construction; bundle_family.sym_chi gives chi(Sym^m E) in closed form in
m, and the tests check that against the sum of its m+1 Riemann-Roch
summands.  Nothing here tests the paper's regime:
hilbert_component.component_dimension() checks the regime forms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .bundle_family import FamilyParams, SplitBundle, sym_chi
from .chow_ring import IntersectionNumbers, ScrollContext
from .errors import ConsistencyError, exact_div
from .surface_lattice import intersect


class BinomialCubic(namedtuple("BinomialCubic", "p0 p1 p2 p3")):
    """P(m) = p0 + p1*m + p2*C(m, 2) + p3*C(m, 3) with integers p0..p3.

    A cubic is integer-valued on the integers iff its coefficients in the
    binomial basis are integers (Polya), so the record is its own proof of
    integrality and value_at is exact for every integer m.
    """

    __slots__ = ()

    def value_at(self, m: int) -> int:
        p0, p1, p2, p3 = self
        return p0 + p1 * m + p2 * (m * (m - 1) // 2) + p3 * (m * (m - 1) * (m - 2) // 6)

    def monomial(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The exact rational coefficients of 1, m, m^2, m^3, for printing."""
        p0, p1, p2, p3 = self
        return (Fraction(p0), Fraction(6 * p1 - 3 * p2 + 2 * p3, 6),
                Fraction(p2 - p3, 2), Fraction(p3, 6))

    def to_pairs(self) -> list[list[int]]:
        """[[numerator, denominator], ...] by ascending degree, for JSON."""
        return [[coeff.numerator, coeff.denominator] for coeff in self.monomial()]

    def pretty(self) -> str:
        terms = []
        for power, coeff in enumerate(self.monomial()):
            if coeff == 0:
                continue
            mono = "" if power == 0 else ("m" if power == 1 else f"m^{power}")
            body = str(coeff) if not mono else (
                mono if coeff == 1 else f"({coeff})*{mono}" if coeff.denominator != 1
                else f"{coeff}*{mono}"
            )
            terms.append(body)
        return " + ".join(terms) if terms else "0"


def scroll_degree(ctx: ScrollContext) -> int:
    """d = c1^2 - c2 on F_e against 8e+5b+7t+40; intersection_numbers() checks L3."""
    params = ctx.params
    by_chern = intersect(ctx.e, ctx.c1, ctx.c1) - ctx.c2
    closed = 8 * params.e + 5 * params.b + 7 * params.t + 40
    if by_chern != closed:
        raise ConsistencyError(
            f"c1^2-c2 != 8e+5b+7t+40 at {params}: "
            f"c1^2-c2={by_chern}, closed form={closed}"
        )
    return by_chern


def hilbert_polynomial(
    params: FamilyParams, bundle: SplitBundle, nums: IntersectionNumbers
) -> BinomialCubic:
    """Hilbert polynomial of (X, L), verified against chi(Sym^m E) on [0, 8].

    bundle is the member's split form E = A + B and nums its intersection
    numbers.  Riemann-Roch in the binomial basis gives p3 = L3,
    p2 = L3 - KL2/2 and p1 = (2 L3 - 3 KL2 + K2L + c2L)/12; each division
    goes through exact_div, so a coefficient that is not an integer raises.
    P(0) = 1 holds by construction (p0 = 1), and P(1) = n+1 is the m = 1
    case, since chi(E) = h^0(E) = n+1 by bundle_cohomology.
    """
    l3, kl2 = nums.L3, nums.KL2
    poly = BinomialCubic(
        p0=1,
        p1=exact_div(2 * l3 - 3 * kl2 + nums.K2L + nums.c2L, 12, "P(m) coefficient p1"),
        p2=l3 - exact_div(kl2, 2, "P(m) coefficient p2"),
        p3=l3,
    )
    for m in range(0, 9):
        expected = sym_chi(bundle, m)
        if poly.value_at(m) != expected:
            raise ConsistencyError(
                f"P(m) != chi(Sym^m E) at {params}, m={m}: "
                f"P={poly.value_at(m)}, chi={expected}"
            )
    return poly
