"""Intersection calculus on the P^1-bundle X = P(E) over F_e.

Classes are kept in normal form over the eight-element basis

    degree 0:  1
    degree 1:  xi, C0', f'
    degree 2:  xi*C0', xi*f', pt'
    degree 3:  pt

where xi is the tautological hyperplane class (xi restricts to the
embedding hyperplane L), primes denote pullbacks from F_e, pt' the
pulled-back point class and pt the point class of X.  Products reduce
eagerly through

    xi^2    = xi*c1' - c2*pt'     (rank-two projective-bundle relation)
    D1'*D2' = (D1.D2) pt'
    xi*pt'  = pt
    D'*pt'  = 0

and anything above degree 3 vanishes.  These rules force
xi^3 = c1^2 - c2, the degree of the embedded scroll.

Every number the engine reads off X is the degree of a product of
complementary degrees, and the pairing rules that give them are written
out twice, as two routes that must agree.  intersection_numbers() reads
all seven in one pass: _read_numbers() writes K_X = u*xi + D' once and
expands the four triple products of L = xi and K_X by

    xi^3 = c1^2 - c2,  xi^2.D' = c1.D,  xi.D1'.D2' = D1.D2,  D1'.D2'.D3' = 0,

takes c2.L and K.c2 from the curve coordinates of c2(T_X) and c3 from
degree(), and intersection_numbers() checks each number against its
closed form in (d, e, b, t).  multiply() builds the full normal form:
the verification suite proves, once per run on symbolic classes, the
ring axioms, the projective-bundle relation and each number of the
reader equal to the degree of its full product, and chern_TX() reads
-K.c2 by the full product.  Only a wrong formula makes a class of mixed
degree, so each route checks the degrees of what it reads: degree()
raises ConsistencyError on a zero-cycle with lower-degree terms,
_read_numbers() on a c2(T_X) that is not a curve class, and chern_TX()
compares c1(T_X) whole with -K_X.  P(m) and chi(N)
read the ring only through intersection_numbers(): by Riemann-Roch each
is a polynomial in those seven numbers.  Building the Chern classes of
the normal bundle as Chow classes is kept as a test oracle for chi(N).
The ring knows a member only through ScrollContext(e, c1, c2), the Chern
data that bundle_family.chern returns, so it runs as well on symbolic e,
c1 and c2; intersection_numbers() also takes the member's (e, b, t), for
its closed forms.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConsistencyError
from .surface_lattice import DivisorClass, _new, canonical_class


class ScrollContext(namedtuple("ScrollContext", "e c1 c2")):
    """A member's Chern data and all the ring needs: the surface F_e, c1 and c2 of E."""

    __slots__ = ()


class ChowClass(namedtuple("ChowClass", "z xi h1 h2 xih1 xih2 p pt", defaults=(0,) * 8)):
    """Normal-form coefficients; field order matches the basis listing above.
    Results here and in multiply() skip the namedtuple's __new__ frame."""

    __slots__ = ()

    def __add__(self, other: ChowClass) -> ChowClass:
        z, xi, h1, h2, xih1, xih2, p, pt = self
        oz, oxi, oh1, oh2, oxih1, oxih2, op, opt = other
        return _new(ChowClass, (z + oz, xi + oxi, h1 + oh1, h2 + oh2,
                                xih1 + oxih1, xih2 + oxih2, p + op, pt + opt))

    def __sub__(self, other: ChowClass) -> ChowClass:
        z, xi, h1, h2, xih1, xih2, p, pt = self
        oz, oxi, oh1, oh2, oxih1, oxih2, op, opt = other
        return _new(ChowClass, (z - oz, xi - oxi, h1 - oh1, h2 - oh2,
                                xih1 - oxih1, xih2 - oxih2, p - op, pt - opt))

    def __neg__(self) -> ChowClass:
        z, xi, h1, h2, xih1, xih2, p, pt = self
        return _new(ChowClass, (-z, -xi, -h1, -h2, -xih1, -xih2, -p, -pt))

    def __mul__(self, k: int) -> ChowClass:
        z, xi, h1, h2, xih1, xih2, p, pt = self
        return _new(ChowClass, (z * k, xi * k, h1 * k, h2 * k,
                                xih1 * k, xih2 * k, p * k, pt * k))

    __rmul__ = __mul__


XI = ChowClass(xi=1)
_TWO_XI = ChowClass(xi=2)
_C2_FIBER = ChowClass(p=4)  # c2(T_F)' = 4 pt': the Euler number of any F_e is 4


def pullback(d: DivisorClass) -> ChowClass:
    """Pullback of a divisor class from F_e."""
    return _new(ChowClass, (0, 0, d.a, d.c, 0, 0, 0, 0))


def multiply(ctx: ScrollContext, x: ChowClass, y: ChowClass) -> ChowClass:
    """Product in normal form, reducing by the relations in the module docstring."""
    xz, xxi, xh1, xh2, xxih1, xxih2, xp, xpt = x
    yz, yxi, yh1, yh2, yxih1, yxih2, yp, ypt = y
    e, c1 = ctx.e, ctx.c1
    ca, cc = c1.a, c1.c  # c1.f = ca
    c1_c0 = cc - e * ca
    xixi = xxi * yxi
    return _new(ChowClass, (
        xz * yz,
        xz * yxi + xxi * yz,
        xz * yh1 + xh1 * yz,
        xz * yh2 + xh2 * yz,
        xz * yxih1 + xxih1 * yz + xxi * yh1 + xh1 * yxi + xixi * ca,
        xz * yxih2 + xxih2 * yz + xxi * yh2 + xh2 * yxi + xixi * cc,
        xz * yp + xp * yz - xixi * ctx.c2 - e * (xh1 * yh1) + (xh1 * yh2 + xh2 * yh1),
        xz * ypt
        + xpt * yz
        + (xxi * yxih1 + xxih1 * yxi) * c1_c0
        + (xxi * yxih2 + xxih2 * yxi) * ca
        + (xxi * yp + xp * yxi)
        - e * (xh1 * yxih1 + xxih1 * yh1)
        + (xh1 * yxih2 + xxih2 * yh1)
        + (xh2 * yxih1 + xxih1 * yh2),
    ))


def degree(x: ChowClass) -> int:
    """Coefficient of pt for a zero-cycle; lower-degree terms must vanish."""
    if any(x[:7]):
        raise ConsistencyError(f"not a zero-cycle: {x}")
    return x.pt


def canonical_class_X(ctx: ScrollContext) -> ChowClass:
    """K_X = -2*xi + (K_{F_e} + c1)'."""
    k_surf = canonical_class(ctx.e)
    return pullback(k_surf + ctx.c1) - _TWO_XI


def chern_TX(ctx: ScrollContext) -> tuple[ChowClass, ChowClass, ChowClass]:
    """Chern classes of the tangent bundle of X.

    c(T_X) = (1 + 2*xi - c1') * (1 - K_F' + c2(T_F)'), with c2(T_F) = 4 pt'
    (the Euler number of any F_e is 4).  Self-checks: c1(T_X) = -K_X,
    deg c3 = 8 and -K.c2 = 24, both by degree() of a full product; failures
    raise ConsistencyError.

    E enters only through c1.  By the relative Euler sequence
    0 -> O -> pi^*E^v (x) O(1) -> T_{X/F} -> 0 (Fulton, 3.2),
    c(T_{X/F}) = 1 + (2*xi - c1') + (xi^2 - xi*c1' + c2'), and the
    projective-bundle relation makes the degree-two term zero; neither factor
    has an xi^2 for multiply() to reduce by c2.  verify proves this once per
    run, on variable e, c1 and c2, and shares the classes among the members of
    one F_e with one c1.
    """
    c1, k_surf = ctx.c1, canonical_class(ctx.e)
    t_rel = _new(ChowClass, (0, 2, -c1.a, -c1.c, 0, 0, 0, 0))  # 2*xi - c1'
    c1_fiber = _new(ChowClass, (0, 0, -k_surf.a, -k_surf.c, 0, 0, 0, 0))  # -K_F'
    c1x = t_rel + c1_fiber
    c2x = multiply(ctx, t_rel, c1_fiber) + _C2_FIBER
    c3x = multiply(ctx, t_rel, _C2_FIBER)
    if c1x != -canonical_class_X(ctx):
        raise ConsistencyError("c1(T_X) != -K_X")
    c3 = degree(c3x)
    if c3 != 8:
        raise ConsistencyError(f"deg c3(T_X) != 8: got {c3}")
    minus_k_c2 = degree(multiply(ctx, c1x, c2x))
    if minus_k_c2 != 24:
        raise ConsistencyError(f"-K.c2(T_X) != 24: got {minus_k_c2}")
    return c1x, c2x, c3x


IntersectionNumbers = namedtuple("IntersectionNumbers", "L3 KL2 K2L K3 c2L Kc2 c3")


def _read_numbers(ctx: ScrollContext, tangent: tuple[ChowClass, ...]) -> IntersectionNumbers:
    """The seven numbers of intersection_numbers(), for any context and its chern_TX.

    With K_X = -c1(T_X) = u*xi + (p*C0 + q*f)', T = c1^2 - c2, cD = c1.D and
    DD = D.D, the pairing rules in the module docstring give L^3 = T,
    K.L^2 = u*T + cD, K^2.L = u^2*T + 2u*cD + DD and
    K^3 = u^3*T + 3u^2*cD + 3u*DD.  c2(T_X) must be a curve class, else
    ConsistencyError; by xi.(xi*D') = c1.D, xi.pt' = pt and
    D1'.(xi*D2') = D1.D2, c2.L and K.c2 are sums over its coordinates.
    multiply() is the other route: verify proves each number equal to the
    degree of its full product once per run, on a symbolic context, K_X,
    c2(T_X) and c3(T_X).
    """
    c1x, c2x, c3x = tangent
    e, c1_f = ctx.e, ctx.c1.a
    c1_c0 = ctx.c1.c - e * c1_f
    u, p, q = -c1x.xi, -c1x.h1, -c1x.h2
    top = c1_f * c1_c0 + ctx.c1.c * c1_f - ctx.c2
    c_d = p * c1_c0 + q * c1_f
    d_d = 2 * p * q - e * p * p
    wz, wxi, wh1, wh2, wxih1, wxih2, wp, wpt = c2x
    if wz or wxi or wh1 or wh2 or wpt:
        raise ConsistencyError(f"not a curve class: {c2x}")
    c2_l = wxih1 * c1_c0 + wxih2 * c1_f + wp
    return _new(IntersectionNumbers, (
        top,
        u * top + c_d,
        u * u * top + 2 * u * c_d + d_d,
        u * u * u * top + 3 * u * u * c_d + 3 * u * d_d,
        c2_l,
        u * c2_l + p * (wxih2 - e * wxih1) + q * wxih1,
        degree(c3x),
    ))


def intersection_numbers(
    params: tuple[int, int, int], ctx: ScrollContext, tangent: tuple[ChowClass, ...]
) -> IntersectionNumbers:
    """All degree-3 pairings of L, K and the Chern classes of T_X.

    ``params`` is the member's (e, b, t) and ``tangent`` chern_TX(ctx).  Every
    entry is computed twice: read off K_X and c2(T_X) in one pass, and by the
    closed forms in (d, e, b, t).  Any disagreement raises ConsistencyError.
    verify proves the reader equal to the degrees of the full products.
    """
    e, b, t = params
    by_chow = _read_numbers(ctx, tangent)
    d = 8 * e + 5 * b + 7 * t + 40
    closed = (
        d,
        -2 * d + 6 * e + 28 + 6 * t + 6 * b,
        4 * d - 20 * b - 20 * t - 20 * e - 96,
        -8 * d + 48 * b + 48 * t + 48 * e + 240,
        2 * e + 24 + 2 * b + 2 * t,
        -24,
        8,
    )
    if by_chow != closed:
        raise ConsistencyError(
            f"intersection numbers disagree with closed forms at e={e}, b={b}, t={t}: "
            f"chow={by_chow}, closed={IntersectionNumbers._make(closed)}"
        )
    return by_chow
