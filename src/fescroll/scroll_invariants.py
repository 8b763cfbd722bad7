"""Projective invariants of the embedded threefold scroll.

The sections of E embed X = P(E) in P^n with n = h^0(E) - 1 and degree
d = c1^2 - c2 (deg xi^3 = L^3 in intersection_numbers() is its second
route).  The Hilbert polynomial comes from Riemann-Roch on X,

    P(m) = (m^3/6) L^3 - (m^2/4) L^2.K + (m/12) L.(K^2 + c2) + 1,

and is cross-checked against the independent oracle chi(Sym^m E) for
m in [0, 8] on every construction.  Nothing here tests the paper's
regime: hilbert_component.component_dimension() checks the regime forms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .bundle_family import FamilyParams, SplitBundle, sym_chi
from .chow_ring import IntersectionNumbers, ScrollContext
from .errors import ConsistencyError
from .surface_lattice import intersect


class RationalCubic(namedtuple("RationalCubic", "c0 c1 c2 c3 den nums")):
    """Cubic with exact rational coefficients, ascending degree.

    Must be integer-valued on the integers; sampled on [-6, 6] at
    construction time (a cubic integral on four consecutive integers is
    integral everywhere, so the sample is a proof).  Values are computed
    in integers: den * P(m) by Horner's rule, with den the lcm of the
    coefficient denominators, so P(m) is an integer iff den divides it.
    Built as RationalCubic(c0, c1, c2, c3); den and nums are derived.
    """

    __slots__ = ()

    def __new__(
        cls, c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction
    ) -> RationalCubic:
        coeffs = (c0, c1, c2, c3)
        den = lcm(*(coeff.denominator for coeff in coeffs))
        nums = tuple(coeff.numerator * (den // coeff.denominator) for coeff in coeffs)
        self = tuple.__new__(cls, (*coeffs, den, nums))
        for m in range(-6, 7):
            if not self.is_integral_at(m):
                raise ConsistencyError(f"cubic not integer-valued at m={m}: {self}")
        return self

    def __repr__(self) -> str:
        return (f"RationalCubic(c0={self.c0!r}, c1={self.c1!r}, "
                f"c2={self.c2!r}, c3={self.c3!r})")

    def _scaled(self, m: int) -> int:
        """den * P(m)."""
        n0, n1, n2, n3 = self.nums
        return ((n3 * m + n2) * m + n1) * m + n0

    def is_integral_at(self, m: int) -> bool:
        return self._scaled(m) % self.den == 0

    def __call__(self, m: int) -> Fraction:
        return Fraction(self._scaled(m), self.den)

    def value_at(self, m: int) -> int:
        value, remainder = divmod(self._scaled(m), self.den)
        if remainder:
            raise ConsistencyError(f"cubic not integer-valued at m={m}: {self}")
        return value

    def to_pairs(self) -> list[list[int]]:
        """[[numerator, denominator], ...] by ascending degree, for JSON."""
        return [[coeff.numerator, coeff.denominator] for coeff in self[:4]]

    def pretty(self) -> str:
        terms = []
        for power, coeff in enumerate(self[:4]):
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
) -> RationalCubic:
    """Hilbert polynomial of (X, L), verified against chi(Sym^m E) on [0, 8].

    bundle is the member's split form E = A + B and nums its intersection
    numbers.  P(0) = 1 holds by construction (c0 = 1), and P(1) = n+1 is
    the m = 1 case, since chi(E) = h^0(E) = n+1 by bundle_cohomology.
    """
    poly = RationalCubic(
        c0=Fraction(1),
        c1=Fraction(nums.K2L + nums.c2L, 12),
        c2=Fraction(-nums.KL2, 4),
        c3=Fraction(nums.L3, 6),
    )
    for m in range(0, 9):
        expected = sym_chi(bundle, m)
        if poly.value_at(m) != expected:
            raise ConsistencyError(
                f"P(m) != chi(Sym^m E) at {params}, m={m}: "
                f"P={poly.value_at(m)}, chi={expected}"
            )
    return poly
