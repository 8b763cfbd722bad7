"""Projective invariants of the embedded threefold scroll.

The sections of E embed X = P(E) in P^n with n = h^0(E) - 1 and degree
d = c1^2 - c2 (deg xi^3 = L^3 in intersection_numbers() is its second
route).  The Hilbert polynomial P(m) = chi(Sym^m E) is held by its integer
coefficients in the binomial basis, read off bundle_family.sym_chi at
m = 0..3 and checked by multiplication against Riemann-Roch on X,

    P(m) = (m^3/6) L^3 - (m^2/4) L^2.K + (m/12) L.(K^2 + c2) + 1.

That the cubic through those four values is chi(Sym^m E) for every m is
an identity in Z[e, b, t, m], which the tests prove; verify compares the
two again for m in [4, 8] on every member of its grid.  Nothing here tests
the paper's regime: hilbert_component.component_dimension() checks the
regime forms.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import bundle_family as bf
from .chow_ring import IntersectionNumbers, ScrollContext
from .errors import ConsistencyError
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

    def to_pairs(self) -> list[list[int]]:
        """The coefficients of 1, m, m^2, m^3 as [numerator, denominator] in
        lowest terms, the denominator positive: for printing and JSON."""
        p0, p1, p2, p3 = self
        ratios = ((p0, 1), (6 * p1 - 3 * p2 + 2 * p3, 6), (p2 - p3, 2), (p3, 6))
        return [[num // g, den // g] for num, den in ratios for g in (gcd(num, den),)]

    def pretty(self) -> str:
        terms = []
        for power, (num, den) in enumerate(self.to_pairs()):
            if not num:
                continue
            coeff = str(num) if den == 1 else f"({num}/{den})"  # p0's denominator is 1
            mono = ("", "m", "m^2", "m^3")[power]
            terms.append(coeff if not mono else mono if coeff == "1" else f"{coeff}*{mono}")
        return " + ".join(terms) or "0"


def scroll_degree(params: bf.FamilyParams, ctx: ScrollContext) -> int:
    """d = c1^2 - c2 on F_e against 8e+5b+7t+40; intersection_numbers() checks L3."""
    by_chern = intersect(ctx.e, ctx.c1, ctx.c1) - ctx.c2
    closed = 8 * params.e + 5 * params.b + 7 * params.t + 40
    if by_chern != closed:
        raise ConsistencyError(
            f"c1^2-c2 != 8e+5b+7t+40 at {params}: "
            f"c1^2-c2={by_chern}, closed form={closed}"
        )
    return by_chern


_RR_RELATIONS = ("p0 = 1", "12*p1 = 2L3-3KL2+K2L+c2L", "2*p2 = 2L3-KL2", "p3 = L3")


def hilbert_polynomial(
    params: bf.FamilyParams, bundle: bf.SplitBundle, nums: IntersectionNumbers
) -> BinomialCubic:
    """Hilbert polynomial of (X, L), checked by Riemann-Roch on X.

    bundle is the member's split form E = A + B and nums its intersection
    numbers.  p0..p3 are the finite differences of chi(Sym^m E) at m = 0,
    so integers; Riemann-Roch on X (chi(O_X) = 1), with nothing divided,
    gives (p0, 12 p1, 2 p2, p3) = (1, 2 L3 - 3 KL2 + K2L + c2L, 2 L3 - KL2, L3).
    P(1) = chi(E) = h^0(E) = n+1 by bundle_cohomology.
    """
    v0, v1, v2, v3 = (bf.sym_chi(bundle, m) for m in range(4))
    poly = BinomialCubic(v0, v1 - v0, v2 - 2 * v1 + v0, v3 - 3 * v2 + 3 * v1 - v0)
    l3, kl2 = nums.L3, nums.KL2
    by_sym = (poly.p0, 12 * poly.p1, 2 * poly.p2, poly.p3)
    by_rr = (1, 2 * l3 - 3 * kl2 + nums.K2L + nums.c2L, 2 * l3 - kl2, l3)
    if by_sym != by_rr:
        for relation, sym, rr in zip(_RR_RELATIONS, by_sym, by_rr):
            if sym != rr:
                raise ConsistencyError(f"Riemann-Roch {relation} fails at {params}: "
                                       f"chi(Sym^m E) gives {sym}, Riemann-Roch {rr}")
    return poly
