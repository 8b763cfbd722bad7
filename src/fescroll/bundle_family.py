"""A three-parameter family of rank-two bundles on Hirzebruch surfaces.

A member is selected by integers (e, b, t) and is handled in split form
E = A + B with A = 3*C0 + (3e+5+t)*f and B = C0 + (b+1)*f.  An equivalent
extension presentation (line bundles L = C0 + b*f, M = 3*C0 + (3e+6+t)*f
and a length-two cluster on a fiber) is kept only to cross-validate the
Chern data: all three presentations must give c1 = 4*C0 + (b+3e+6+t)*f and
c2 = 3b+8+t, and chern returns them with e as the chow_ring.ScrollContext
that every later layer reads.  A record a layer returns is built with
tuple.__new__ from values that layer checked: FamilyParams() validates
(e, b, t), so the records built from it skip the namedtuple's __new__.

Validation window: e >= 0, t >= 0, -2 < b < 2e+4+t, and b > e-1 (forced by
ampleness of B).  Each violated inequality raises a distinct
ParameterError.

The fiber-restriction invariants live here too: for a twist by -d1*C0 the
threshold r (the largest fiber coefficient of a summand that stays
effective) is read off the split form in O(1), and the closed-form
ell(c1, c2, d1, r) decides the generic splitting type.  is_uniform makes
them one record and checks each value there: ell at d1=2 must equal
b-t-2e-4 (for every r, and < 0 by validation's b < 2e+4+t, so no order is
compared), ell at d1=3 must vanish at r, and the type (3, 1) that ell
decides must be the fiber degrees (A.f, B.f).  The verification suite
certifies the threshold at its two neighbouring fiber twists, with
h^0 from cohomology(); the tests keep a scan over all the twists as its
oracle.

chi(Sym^m E), the route that gives the Hilbert polynomial, is a closed form
in m: the Riemann-Roch summands of its m+1 line bundles are quadratic in
the summand's index, so sym_chi sums them by Faulhaber's formulas in O(1).
Twelve times that sum is straight-line code with no division, so on
polynomial variables e, b, t and m it is one identity in Z[e, b, t, m]:
the tests prove P(m) = chi(Sym^m E) on it, and keep the term-by-term sum as
its oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .chow_ring import ScrollContext
from .errors import ConsistencyError, ParameterError, exact_div
from .surface_lattice import (
    FIBER,
    ZERO,
    CohomologyTable,
    DivisorClass,
    SurfaceTables,
    _new,
    intersect,
)


class FamilyParams(namedtuple("FamilyParams", "e b t")):
    """Validated parameter triple (e, b, t)."""

    __slots__ = ()

    def __new__(cls, e: int, b: int, t: int) -> FamilyParams:
        if e < 0:
            raise ParameterError("e_negative", f"require e >= 0, got e={e}")
        if t < 0:
            raise ParameterError("t_negative", f"require t >= 0, got t={t}")
        if b <= -2:
            raise ParameterError("b_lower", f"require b > -2, got b={b}")
        if b >= 2 * e + 4 + t:
            raise ParameterError(
                "b_upper", f"require b < 2e+4+t = {2 * e + 4 + t}, got b={b}"
            )
        if b <= e - 1:
            raise ParameterError(
                "ampleness", f"ampleness forces b > e-1 = {e - 1}, got b={b}"
            )
        return tuple.__new__(cls, (e, b, t))

    @property
    def paper_regime(self) -> bool:
        """e <= 2 and b = 2e+3+t, where the paper proves v1, v2 and v3."""
        return self.e <= 2 and self.b == 2 * self.e + 3 + self.t


def iter_valid_params(e_max: int, t_max: int):
    """All valid (e, b, t) with e <= e_max, t <= t_max, ordered by (e, t, b)."""
    for e in range(e_max + 1):
        yield from surface_params(e, t_max)


def surface_params(e: int, t_max: int):
    """All valid (e, b, t) on F_e with t <= t_max, ordered by (t, b)."""
    for t in range(t_max + 1):
        for b in range(e, 2 * e + 4 + t):
            yield FamilyParams(e, b, t)


def grid_member_count(e_max: int, t_max: int) -> int:
    """How many members iter_valid_params(e_max, t_max) yields, in closed form.

    Each (e, t) has e+4+t values of b, so the sum over the grid is
    4(E+1)(T+1) + (T+1)E(E+1)/2 + (E+1)T(T+1)/2.
    """
    E, T = e_max, t_max
    return 4 * (E + 1) * (T + 1) + (T + 1) * E * (E + 1) // 2 + (E + 1) * T * (T + 1) // 2


# E = A + B on F_e
SplitBundle = namedtuple("SplitBundle", "A B")
# extension presentation: 0 -> L -> E -> M tensor ideal of a cluster -> 0
ExtensionData = namedtuple("ExtensionData", "L M w_len")


def build_split(params: FamilyParams) -> SplitBundle:
    """A = 3*C0 + (3e+5+t)*f, B = C0 + (b+1)*f."""
    e, b, t = params
    return _new(SplitBundle, (_new(DivisorClass, (3, 3 * e + 5 + t)),
                              _new(DivisorClass, (1, b + 1))))


def extension_data(params: FamilyParams) -> ExtensionData:
    e, b, t = params
    return _new(ExtensionData, (_new(DivisorClass, (1, b)),
                                _new(DivisorClass, (3, 3 * e + 6 + t)), 2))


def chern(params: FamilyParams, bundle: SplitBundle) -> ScrollContext:
    """Chern data ScrollContext(e, c1, c2), cross-asserted over all three presentations.

    bundle is the member's split form build_split(params).
    """
    e, b, t = params
    ext = extension_data(params)
    c1_closed = _new(DivisorClass, (4, b + 3 * e + 6 + t))
    c2_closed = 3 * b + 8 + t
    c1_split = bundle.A + bundle.B
    c2_split = intersect(e, bundle.A, bundle.B)
    c1_ext = ext.L + ext.M
    c2_ext = intersect(e, ext.L, ext.M) + ext.w_len
    if not (c1_closed == c1_split == c1_ext and c2_closed == c2_split == c2_ext):
        raise ConsistencyError(
            "c1 = A+B = L+M = 4*C0+(b+3e+6+t)*f and c2 = A.B = L.M+2 = 3b+8+t "
            f"violated at {params}"
        )
    return _new(ScrollContext, (e, c1_closed, c2_closed))


def invariant_r(bundle: SplitBundle, d1: int) -> int:
    """Section threshold against -d1*C0 twists.

    -r is the smallest fiber twist ell such that E(-d1*C0 + ell*f) has a
    section.  A line bundle a*C0 + c*f on F_e has a section iff a >= 0 and
    c >= 0, so r is the largest c among the summands A, B with a >= d1;
    for d1 in {1, 2, 3} that is A's, r = 3e+5+t.
    """
    if d1 not in (1, 2, 3):
        raise ValueError(f"d1 must be 1, 2 or 3, got {d1}")
    a_cls, b_cls = bundle
    if b_cls.a < d1:  # only A can count; with neither, max() of nothing raises
        return max((a_cls.c,) if a_cls.a >= d1 else ())
    return b_cls.c if a_cls.a < d1 else max(a_cls.c, b_cls.c)


def ell_invariant(ctx: ScrollContext, d1: int, r: int) -> int:
    """ell(c1, c2, d1, r) = c2 + a*(d1*e - r) - s*d1 + 2*d1*r - d1^2*e.

    Here (a, s) = (4, b+3e+6+t) are the coefficients of c1 and c2 = 3b+8+t.
    """
    e, a, s_coeff = ctx.e, ctx.c1.a, ctx.c1.c
    return (
        ctx.c2
        + a * (d1 * e - r)
        - s_coeff * d1
        + 2 * d1 * r
        - d1 * d1 * e
    )


UniformityEvidence = namedtuple("UniformityEvidence", "uniform r ell2 ell3 splitting_type")


def is_uniform(
    params: FamilyParams, bundle: SplitBundle, ctx: ScrollContext
) -> UniformityEvidence:
    """Uniformity of splitting type (3, 1), with the witnessing numbers, each checked.

    ell at d1=3 must vanish at the threshold r3 = invariant_r(bundle, 3),
    and ell at d1=2, whose r coefficient 2*d1 - 4 is 0, must equal
    b-t-2e-4 there.  ell then decides the type (d1, c1.f - d1) at d1 = 3,
    which must be the fiber degrees (A.f, B.f) of the split form.  So the
    member is uniform whenever this returns.
    """
    r3 = invariant_r(bundle, 3)
    ell2 = ell_invariant(ctx, 2, r3)
    ell3 = ell_invariant(ctx, 3, r3)
    if ell2 != params.b - params.t - 2 * params.e - 4:
        raise ConsistencyError(f"ell(c1,c2,2,r) != b-t-2e-4 at {params}, r={r3}")
    if ell3 != 0:
        raise ConsistencyError(f"expected ell(c1,c2,3,r) = 0 at {params}, r={r3}")
    by_ell = (3, intersect(ctx.e, ctx.c1, FIBER) - 3)
    by_split = (intersect(ctx.e, bundle.A, FIBER), intersect(ctx.e, bundle.B, FIBER))
    if by_ell != by_split:
        raise ConsistencyError(
            f"splitting type {by_ell} by ell != (A.f, B.f) = {by_split} at {params}")
    return _new(UniformityEvidence, (True, r3, ell2, ell3, by_split))


def bundle_cohomology(
    params: FamilyParams, bundle: SplitBundle, tables: SurfaceTables
) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
    """Tables of A, B and E = A + B; the closed forms for each are asserted.

    bundle is build_split(params), and tables are those of its surface F_e.
    """
    e, b, t = params.e, params.b, params.t
    tab_a = tables[bundle.A]
    tab_b = tables[bundle.B]
    if tab_a.h0 != 6 * e + 4 * t + 24:
        raise ConsistencyError(f"h0(A) != 6e+4t+24 at {params}: got {tab_a.h0}")
    if tab_b.h0 != 2 * b + 4 - e:
        raise ConsistencyError(f"h0(B) != 2b+4-e at {params}: got {tab_b.h0}")
    table = tab_a + tab_b
    if (table.h0, table.h1, table.h2) != (5 * e + 2 * b + 4 * t + 28, 0, 0):
        raise ConsistencyError(
            f"h(E) != (5e+2b+4t+28, 0, 0) at {params}: got {table.as_tuple()}"
        )
    return tab_a, tab_b, table


def _twelve_sym_chi(e: int, bundle: SplitBundle, m: int) -> int:
    """12 chi(Sym^m E), with no division and no comparison, so m may be a variable.

    Sym^m splits into the line bundles i*A + (m-i)*B, i = 0..m, of class
    a*C0 + c*f with a = m*B.a + i*da and c = m*B.c + i*dc, and Riemann-Roch
    gives chi(a*C0 + c*f) = (a+1)(c+1) - e*a(a+1)/2.  Both terms are
    quadratic in i, so their sum over i is Faulhaber's, with the power sums
    s0 = m+1, s1 = m(m+1)/2 and s2 = m(m+1)(2m+1)/6: O(1) in m.  Scaled by
    6 they are polynomials in m, so 12 chi = 2*six_ac - e*six_aa is one.
    """
    da, dc = bundle.A.a - bundle.B.a, bundle.A.c - bundle.B.c
    a0, c0 = m * bundle.B.a, m * bundle.B.c
    six_s0, six_s1, six_s2 = 6 * (m + 1), 3 * m * (m + 1), m * (m + 1) * (2 * m + 1)
    # 6 times the sums of (a+1)(c+1) and of a(a+1) over the m+1 summands
    six_ac = (six_s0 * (a0 + 1) * (c0 + 1) + six_s1 * ((a0 + 1) * dc + (c0 + 1) * da)
              + six_s2 * da * dc)
    six_aa = six_s0 * a0 * (a0 + 1) + six_s1 * da * (2 * a0 + 1) + six_s2 * da * da
    return 2 * six_ac - e * six_aa


def sym_chi(e: int, bundle: SplitBundle, m: int) -> int:
    """chi of the m-th symmetric power of A + B on F_e, in closed form in m >= 0.

    It is _twelve_sym_chi divided by 12, the one exactness check of the sum.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return exact_div(_twelve_sym_chi(e, bundle, m), 12, "chi(Sym^m E) = (2*six_ac - e*six_aa)/12")


def sym2_pieces(
    bundle: SplitBundle, tables: SurfaceTables
) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
    """Tables of A-B, O and B-A, the summands of Sym^2(E) twisted by -c1,
    read from the tables of the bundle's surface F_e."""
    return tables[bundle.A - bundle.B], tables[ZERO], tables[bundle.B - bundle.A]
