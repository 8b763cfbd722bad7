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
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle_family import FamilyParams
from .errors import ConsistencyError
from .surface_lattice import DivisorClass, Surface, canonical_class, intersect


@dataclass(frozen=True)
class ScrollContext:
    """Everything the ring structure needs: the member and the Chern data of E."""

    params: FamilyParams
    c1: DivisorClass
    c2: int

    @property
    def e(self) -> int:
        return self.params.e


@dataclass(frozen=True)
class ChowClass:
    """Normal-form coefficients; field order matches the basis listing above."""

    z: int = 0
    xi: int = 0
    h1: int = 0
    h2: int = 0
    xih1: int = 0
    xih2: int = 0
    p: int = 0
    pt: int = 0

    def __add__(self, other: ChowClass) -> ChowClass:
        return ChowClass(
            self.z + other.z, self.xi + other.xi, self.h1 + other.h1,
            self.h2 + other.h2, self.xih1 + other.xih1, self.xih2 + other.xih2,
            self.p + other.p, self.pt + other.pt,
        )

    def __sub__(self, other: ChowClass) -> ChowClass:
        return ChowClass(*(x - y for x, y in zip(self._coeffs(), other._coeffs())))

    def __neg__(self) -> ChowClass:
        return ChowClass(*(-x for x in self._coeffs()))

    def __mul__(self, k: int) -> ChowClass:
        return ChowClass(*(x * k for x in self._coeffs()))

    __rmul__ = __mul__

    def _coeffs(self) -> tuple[int, ...]:
        return (self.z, self.xi, self.h1, self.h2, self.xih1, self.xih2, self.p, self.pt)


XI = ChowClass(xi=1)
ONE = ChowClass(z=1)
PT_PULLBACK = ChowClass(p=1)
POINT = ChowClass(pt=1)


def pullback(d: DivisorClass) -> ChowClass:
    """Pullback of a divisor class from F_e."""
    return ChowClass(h1=d.a, h2=d.c)


def multiply(ctx: ScrollContext, x: ChowClass, y: ChowClass) -> ChowClass:
    """Product in normal form, reducing by the relations in the module docstring."""
    e = ctx.e
    ca, cc = ctx.c1.a, ctx.c1.c
    c1_dot_c0 = cc - e * ca
    c1_dot_f = ca
    xixi = x.xi * y.xi
    out_z = x.z * y.z
    out_xi = x.z * y.xi + x.xi * y.z
    out_h1 = x.z * y.h1 + x.h1 * y.z
    out_h2 = x.z * y.h2 + x.h2 * y.z
    out_xih1 = x.z * y.xih1 + x.xih1 * y.z + x.xi * y.h1 + x.h1 * y.xi + xixi * ca
    out_xih2 = x.z * y.xih2 + x.xih2 * y.z + x.xi * y.h2 + x.h2 * y.xi + xixi * cc
    out_p = (
        x.z * y.p
        + x.p * y.z
        - xixi * ctx.c2
        - e * (x.h1 * y.h1)
        + (x.h1 * y.h2 + x.h2 * y.h1)
    )
    out_pt = (
        x.z * y.pt
        + x.pt * y.z
        + (x.xi * y.xih1 + x.xih1 * y.xi) * c1_dot_c0
        + (x.xi * y.xih2 + x.xih2 * y.xi) * c1_dot_f
        + (x.xi * y.p + x.p * y.xi)
        - e * (x.h1 * y.xih1 + x.xih1 * y.h1)
        + (x.h1 * y.xih2 + x.xih2 * y.h1)
        + (x.h2 * y.xih1 + x.xih1 * y.h2)
    )
    return ChowClass(out_z, out_xi, out_h1, out_h2, out_xih1, out_xih2, out_p, out_pt)


def prod(ctx: ScrollContext, first: ChowClass, *rest: ChowClass) -> ChowClass:
    acc = first
    for cls in rest:
        acc = multiply(ctx, acc, cls)
    return acc


def degree(x: ChowClass) -> int:
    """Coefficient of pt for a zero-cycle; lower-degree terms must vanish."""
    lower = x._coeffs()[:-1]
    if any(lower):
        raise ValueError(f"not a zero-cycle: {x}")
    return x.pt


def canonical_class_X(ctx: ScrollContext) -> ChowClass:
    """K_X = -2*xi + (K_{F_e} + c1)'."""
    k_surf = canonical_class(Surface(ctx.e))
    return ChowClass(xi=-2) + pullback(k_surf + ctx.c1)


def chern_TX(ctx: ScrollContext) -> tuple[ChowClass, ChowClass, ChowClass]:
    """Chern classes of the tangent bundle of X.

    c(T_X) = (1 + 2*xi - c1') * (1 - K_F' + c2(T_F)'), with c2(T_F) = 4 pt'
    (the Euler number of any F_e is 4).  Self-checks: c1(T_X) = -K_X,
    deg c3 = 8 and -K.c2 = 24; failures raise ConsistencyError.
    """
    s = Surface(ctx.e)
    t_rel = ChowClass(xi=2) - pullback(ctx.c1)
    c1_fiber = pullback(-canonical_class(s))
    c2_fiber = ChowClass(p=4)
    c1x = t_rel + c1_fiber
    c2x = multiply(ctx, t_rel, c1_fiber) + c2_fiber
    c3x = multiply(ctx, t_rel, c2_fiber)
    if c1x != -canonical_class_X(ctx):
        raise ConsistencyError("c1(T_X) != -K_X")
    if degree(c3x) != 8:
        raise ConsistencyError(f"deg c3(T_X) != 8: got {degree(c3x)}")
    minus_k_c2 = degree(multiply(ctx, c1x, c2x))
    if minus_k_c2 != 24:
        raise ConsistencyError(f"-K.c2(T_X) != 24: got {minus_k_c2}")
    return c1x, c2x, c3x


@dataclass(frozen=True)
class IntersectionNumbers:
    L3: int
    KL2: int
    K2L: int
    K3: int
    c2L: int
    Kc2: int
    c3: int


def intersection_numbers(
    ctx: ScrollContext, n: int, tangent: tuple[ChowClass, ChowClass, ChowClass]
) -> IntersectionNumbers:
    """All degree-3 pairings of L, K and the Chern classes of T_X.

    ``tangent`` is chern_TX(ctx).  Every entry is computed twice: by Chow
    multiplication and by the closed forms in (d, e, b, t).  Any
    disagreement, or an n inconsistent with the context, raises
    ConsistencyError.
    """
    e, b, t = ctx.params.e, ctx.params.b, ctx.params.t
    if n != 5 * e + 2 * b + 4 * t + 27:
        raise ConsistencyError(f"n={n} inconsistent with context {ctx}")
    k = canonical_class_X(ctx)
    _c1x, c2x, c3x = tangent
    by_chow = IntersectionNumbers(
        L3=degree(prod(ctx, XI, XI, XI)),
        KL2=degree(prod(ctx, k, XI, XI)),
        K2L=degree(prod(ctx, k, k, XI)),
        K3=degree(prod(ctx, k, k, k)),
        c2L=degree(multiply(ctx, c2x, XI)),
        Kc2=degree(multiply(ctx, k, c2x)),
        c3=degree(c3x),
    )
    d = 8 * e + 5 * b + 7 * t + 40
    closed = IntersectionNumbers(
        L3=d,
        KL2=-2 * d + 6 * e + 28 + 6 * t + 6 * b,
        K2L=4 * d - 20 * b - 20 * t - 20 * e - 96,
        K3=-8 * d + 48 * b + 48 * t + 48 * e + 240,
        c2L=2 * e + 24 + 2 * b + 2 * t,
        Kc2=-24,
        c3=8,
    )
    if by_chow != closed:
        raise ConsistencyError(
            f"intersection numbers disagree with closed forms at e={e}, b={b}, t={t}: "
            f"chow={by_chow}, closed={closed}"
        )
    return by_chow
