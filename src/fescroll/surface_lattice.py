"""Exact divisor arithmetic and line-bundle cohomology on Hirzebruch surfaces.

A numerical class on F_e = P(O + O(-e)) over P^1 is an integer pair (a, c)
standing for a*C0 + c*f, where C0 is the section with C0^2 = -e and f a
fiber (f^2 = 0, C0.f = 1).  Classes are pure lattice data; the surface is
its integer e, the first argument of every operation.  Only cohomology()
checks e >= 0, and nothing here tests the paper's regime.

Cohomology is computed along two independent routes that are cross-checked
on every call:

* h^0 (and, for a >= 0, h^1) fiberwise: the pushforward of a*C0 + c*f to
  P^1 splits into line bundles of degrees c, c-e, ..., c-a*e, so h^0 and
  h^1 are clipped arithmetic series over those degrees, each summed in
  closed form in O(1) time and memory whatever the size of a and c;
* chi by Riemann-Roch, h^2 by Serre duality, h^1 by subtraction.

A disagreement can only come from a wrongly transcribed formula and raises
ConsistencyError.  The kernel behind cohomology() (_chi, _h0_fiberwise,
_h1_fiberwise) works on plain integers (e, a, c), with K - D formed as
(-2-a, -e-2-c), so a call allocates no intermediate classes.  SurfaceTables
keeps one surface's tables, each computed once, for the members and the
identities that read them.

A record a layer returns is built with tuple.__new__ from values that
layer checked: cohomology() runs _checked, the checks of CohomologyTable(),
and a sum of checked tables, which passes both, is not checked again.

The degree list itself (pushforward_degrees) and the lattice-point count
(h0_lattice_oracle) stay as linear-time oracles for the verification suite
and the tests.  All arithmetic is exact; Python integers never overflow.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConsistencyError, ParameterError

_new = tuple.__new__


class DivisorClass(namedtuple("DivisorClass", "a c")):
    """The class a*C0 + c*f; every integer pair is a valid numerical class."""

    __slots__ = ()

    def __add__(self, other: DivisorClass) -> DivisorClass:
        return _new(DivisorClass, (self.a + other.a, self.c + other.c))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return _new(DivisorClass, (self.a - other.a, self.c - other.c))

    def __neg__(self) -> DivisorClass:
        return _new(DivisorClass, (-self.a, -self.c))

    def __mul__(self, k: int) -> DivisorClass:
        return _new(DivisorClass, (self.a * k, self.c * k))

    __rmul__ = __mul__


ZERO = DivisorClass(0, 0)
C0 = DivisorClass(1, 0)
FIBER = DivisorClass(0, 1)


class CohomologyTable(namedtuple("CohomologyTable", "h0 h1 h2 chi")):
    """Dimensions (h0, h1, h2) together with chi; chi = h0 - h1 + h2 always."""

    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int, chi: int) -> CohomologyTable:
        return _checked(_new(cls, (h0, h1, h2, chi)))

    def __add__(self, other: CohomologyTable) -> CohomologyTable:
        # direct sums add componentwise; a sum of checked tables passes both checks
        h0, h1, h2, chi = self
        o0, o1, o2, ochi = other
        return _new(CohomologyTable, (h0 + o0, h1 + o1, h2 + o2, chi + ochi))

    def as_tuple(self) -> tuple[int, int, int]:
        return self[:3]


def _checked(table: CohomologyTable) -> CohomologyTable:
    """table, once its dimensions are nonnegative and chi = h0 - h1 + h2."""
    h0, h1, h2, chi = table
    if min(h0, h1, h2) < 0:
        raise ConsistencyError(f"negative cohomology dimension: {table}")
    if chi != h0 - h1 + h2:
        raise ConsistencyError(f"chi != h0 - h1 + h2: {table}")
    return table


def intersect(e: int, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection pairing forced by C0^2 = -e, f^2 = 0, C0.f = 1; pure in e."""
    return d1.a * d2.c + d2.a * d1.c - e * d1.a * d2.a


def canonical_class(e: int) -> DivisorClass:
    """K_{F_e} = -2*C0 - (e+2)*f; pure in e, so e may be any number type."""
    return DivisorClass(-2, -(e + 2))


def is_effective(e: int, d: DivisorClass) -> bool:
    """The effective cone is spanned by C0 and f.

    For d != 0 this is equivalent to h^0(d) > 0, and h^0(0) = 1; the
    equivalence is enforced by the verification suite.
    """
    return d.a >= 0 and d.c >= 0


def is_ample(e: int, d: DivisorClass) -> bool:
    """Positivity against C0 and f.  On a smooth projective toric surface
    such as F_e ample implies very ample (Cox, Little and Schenck, Toric
    Varieties, Section 6.1); no second route here checks very ampleness."""
    return d.a > 0 and d.c > e * d.a


def pushforward_degrees(e: int, d: DivisorClass) -> list[int]:
    """P^1-degrees of the rank-(a+1) pushforward of a*C0 + c*f; needs a >= 0."""
    if d.a < 0:
        raise ValueError(f"pushforward needs a >= 0, got a={d.a}")
    return [d.c - j * e for j in range(d.a + 1)]


def _chi(e: int, a: int, c: int) -> int:
    """chi(a*C0 + c*f) on F_e by Riemann-Roch, on plain ints.

    D - K = (a+2)*C0 + (c+e+2)*f, so D.(D-K) = a(c+e+2) + (a+2)c - e*a(a+2),
    which is always even.
    """
    pairing = a * (c + e + 2) + (a + 2) * c - e * a * (a + 2)
    if pairing % 2 != 0:
        raise ConsistencyError(f"D.(D-K) odd for D={DivisorClass(a, c)} on F_{e}")
    return 1 + pairing // 2


def _h0_fiberwise(e: int, a: int, c: int) -> int:
    """sum_{j=0..a} max(0, c - j*e + 1), in closed form; 0 when a < 0.

    The terms are positive exactly for j <= J = min(a, c // e) (all j at
    e = 0), so the sum is (J+1)(c+1) - e*J(J+1)/2.
    """
    if a < 0 or c < 0:
        return 0
    last = a if e == 0 else min(a, c // e)
    return (last + 1) * (c + 1) - e * last * (last + 1) // 2


def _h1_fiberwise(e: int, a: int, c: int) -> int:
    """sum_{j=0..a} max(0, j*e - c - 1), in closed form; needs a >= 0.

    For a >= 0 there is no higher pushforward to correct by.  The terms
    are nonnegative exactly for j > J = min(a, c // e), so the sum is the
    arithmetic series over j = max(0, J+1) .. a.
    """
    if a < 0:
        raise ValueError(f"fiberwise h^1 needs a >= 0, got a={a}")
    if e == 0:
        return (a + 1) * max(0, -c - 1)
    first = max(0, min(a, c // e) + 1)
    count = a - first + 1
    return e * (first + a) * count // 2 - (c + 1) * count


def cohomology(e: int, d: DivisorClass) -> CohomologyTable:
    """Full table of a*C0 + c*f on F_e, the two h^1 routes cross-checked.

    h^0 is the closed-form fiberwise sum over the pushforward degrees, h^2
    is h^0(K - D) by Serre duality, h^1 = h^0 + h^2 - chi.  Independently,
    h^1 is recomputed as its own fiberwise series (on D itself when a >= 0,
    on K - D when a <= -2; for a = -1 every group vanishes).  Any mismatch
    raises ConsistencyError; e < 0 raises ParameterError.
    """
    if e < 0:
        raise ParameterError("e_negative", f"require e >= 0, got e={e}")
    a, c = d.a, d.c
    chi_d = _chi(e, a, c)
    if a == -1:
        if chi_d != 0:
            raise ConsistencyError(f"chi != 0 on the a = -1 stratum: D={d} on F_{e}")
        return CohomologyTable(0, 0, 0, 0)
    # K - D, with K = -2*C0 - (e+2)*f
    ka, kc = -2 - a, -e - 2 - c
    h0 = _h0_fiberwise(e, a, c)
    h2 = _h0_fiberwise(e, ka, kc)
    h1 = h0 + h2 - chi_d
    direct = _h1_fiberwise(e, a, c) if a >= 0 else _h1_fiberwise(e, ka, kc)
    if h1 != direct:
        raise ConsistencyError(
            f"h1 routes disagree for D={d} on F_{e}: "
            f"chi-subtraction gives {h1}, fiberwise gives {direct}"
        )
    return _checked(_new(CohomologyTable, (h0, h1, h2, chi_d)))


class SurfaceTables(dict):
    """The line-bundle tables of one surface F_e, each computed once.

    tables[d] is cohomology(e, d), computed on the first lookup through this
    module's global, so a replacement of cohomology sees every computation;
    a lookup whose computation raised stores nothing.  Members of one grid
    command share their surface's tables; nothing keeps them beyond it.
    """

    def __init__(self, e: int) -> None:
        super().__init__()
        self.e = e

    def __missing__(self, d: DivisorClass) -> CohomologyTable:
        table = self[d] = cohomology(self.e, d)
        return table


def h0_lattice_oracle(e: int, d: DivisorClass) -> int:
    """Brute-force section count, independent of the pushforward formula.

    Enumerates monomial sections: pairs (j, m) with 0 <= j <= a and
    0 <= m <= c - j*e.  Intended as a test oracle, not a production path.
    """
    if d.a < 0:
        return 0
    count = 0
    for j in range(d.a + 1):
        top = d.c - j * e
        for _m in range(top + 1):
            count += 1
    return count
