"""Named identity checks swept over parameter grids.

Each check reports how many cases it examined and a list of failure
descriptions (empty on success); run_all() says how the grid is walked.
A passing case costs one counted comparison: only a failing case builds
its detail, a closure that is called only if the failure is kept.

A closed form is asserted once, in the layer function that computes the
value, so that report, table and the other commands are checked too.
Where that assertion is all an identity states, the identity is a guard:
it forces the value and counts one case.  The others run a route of
their own against it: r, for one, is certified by h^0 at its two
neighbouring fiber twists.

Symbolic arithmetic stays out of the surface and member loops.  What
holds for every value of a variable is proved once per run, by the run's
_Proofs, on Poly variables with e among them, and each surface and member
evaluates in integers: ell(c1, c2, 2, r) is proved affine in r, so each
member checks it at r = 0 and r = 1 only, and the Chow ring's two routes,
deg xi^3 = c1^2 - c2 and the reader's intersection numbers equal to the
degrees of the full products, are proved on free K_X, c2(T_X) and
c3(T_X).  A passing member reads each proof's verdict, _Proofs.vanishes,
and tests no Poly at all; where one is false, each subject runs the
proof's builder on its own values.  The Chow-route proof runs
_read_numbers and degree(), which branch on values; a fault behind such a
branch (a K^3 off by one at e = 1 only, say) takes one path on the
variables and is out of its sight, and the member's own closed forms in
intersection_numbers are what catch it.  chern_TX is proved free of c2
the same way, as the relative Euler sequence says it is, and each sweep
then builds it once per c1 of its members: over (8, 12), 288 builds for
1638 members.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from . import bundle_family as bf
from . import chow_ring as cr
from . import hilbert_component as hc
from . import surface_lattice as sl
from .errors import ConsistencyError
from .member import Member, _once
from .poly import Poly

_MAX_FAILURES = 8


class CheckResult:
    """One identity's case count and capped failures.

    Counting a case and keeping a failure are separate steps: a check
    writes `if not rec.case(ok): rec.fail(lambda: ...)`, so a passing case
    pays for one count and builds no detail."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def case(self, ok: bool) -> bool:
        """Count one case and return ok."""
        self.cases += 1
        return ok

    def fail(self, detail: str | Callable[[], str]) -> None:
        """Keep a failed case's detail, up to the cap; a callable detail is
        called only when it is kept."""
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(detail() if callable(detail) else detail)
        elif len(self.failures) == _MAX_FAILURES:
            self.failures.append("... more failures suppressed")


# How a check sweeps, kept as a function attribute so that it survives
# functools.wraps: "surface" checks are called as fn(rec, sweep) once per
# surface F_e of the grid; "member" checks are called as fn(rec, member) for
# every valid member, "regime" checks only for members with e <= 2, b = 2e+3+t.
_CHECKS: list[tuple[str, Callable]] = []


def _register(name: str, sweep: str = "surface"):
    def wrap(fn: Callable) -> Callable:
        fn.sweep = sweep
        _CHECKS.append((name, fn))
        return fn

    return wrap


def _ring_axioms(ctx: cr.ScrollContext, x, y, z) -> tuple[tuple[str, cr.ChowClass], ...]:
    """(axiom, lhs - rhs) of multiply in the ring of ctx on the classes x, y, z."""
    mul = partial(cr.multiply, ctx)
    xy = mul(x, y)
    return (("commutativity", xy - mul(y, x)),
            ("associativity", mul(xy, z) - mul(x, mul(y, z))),
            ("distributivity", mul(x, y + z) - (xy + mul(x, z))))


def _bilinear(e, d1, d2, d3, k) -> tuple[tuple[str, Poly], ...]:
    """(property, lhs - rhs) of the pairing on F_e at classes D1, D2, D3 and a scalar k."""
    return (("symmetry", sl.intersect(e, d1, d2) - sl.intersect(e, d2, d1)),
            ("linearity", sl.intersect(e, d1 + d2 * k, d3)
             - (sl.intersect(e, d1, d3) + k * sl.intersect(e, d2, d3))))


def _ell2(ctx: cr.ScrollContext, r):
    """ell(r) - ell(0) - r*(ell(1) - ell(0)) for ell(c1, c2, 2, r): zero where it is affine."""
    ell = partial(bf.ell_invariant, ctx, 2)
    return ell(r) - ell(0) - r * (ell(1) - ell(0))


def _relation(ctx: cr.ScrollContext) -> cr.ChowClass:
    """multiply(xi^2, xi) - (c1.c1 - c2)*pt, the projective-bundle relation."""
    mul = partial(cr.multiply, ctx)
    d = sl.intersect(ctx.e, ctx.c1, ctx.c1) - ctx.c2
    return mul(mul(cr.XI, cr.XI), cr.XI) - cr.ChowClass(pt=d)


def _ring_numbers(ctx: cr.ScrollContext, tangent: tuple) -> tuple[cr.ChowClass, ...]:
    """multiply(x, y) - reader*pt, a whole ChowClass, for L^3, K.L^2, K^2.L, K^3,
    c2.L and K.c2, K being -c1(T_X) and the reader _read_numbers(ctx, tangent)."""
    mul = partial(cr.multiply, ctx)
    c1x, c2x, _c3x = tangent
    k, xi = -c1x, cr.XI
    xx, kk = mul(xi, xi), mul(k, k)
    nums = cr._read_numbers(ctx, tangent)
    return (mul(xx, xi) - cr.ChowClass(pt=nums.L3), mul(xx, k) - cr.ChowClass(pt=nums.KL2),
            mul(kk, xi) - cr.ChowClass(pt=nums.K2L), mul(kk, k) - cr.ChowClass(pt=nums.K3),
            mul(xi, c2x) - cr.ChowClass(pt=nums.c2L), mul(k, c2x) - cr.ChowClass(pt=nums.Kc2))


class _Proofs:
    """The symbolic identities of one run_all, each proved once, on Poly
    variables with e among them, and kept as a remainder, the difference of
    its sides: a builder above called on the free inputs made with the
    record.  They are the context free, (e, c1.a*C0 + c1.c*f, c2), the
    classes x, y, z, D1, D2, D3, the scalars k and r, and tangent, c(T_X) of
    the shape chern_TX and _read_numbers check a member's to have: K_X =
    u*xi + (p*C0 + q*f)', c2(T_X) = w1*xi*C0' + w2*xi*f' + w3*pt' and
    c3(T_X) = c3*pt.
    The builders are straight-line but for _read_numbers and degree(), whose
    branches only reject a class of the wrong shape, so a builder run on a
    subject's values gives its remainder there.  vanishes(name) decides once
    per run whether a remainder is zero.  Each is a _once value, timed in
    the first identity that reads it; nothing keeps the record past its run,
    so a fault patched into one run is proved afresh in the next."""

    def __init__(self) -> None:
        self._verdicts: dict[str, bool] = {}
        c1 = sl.DivisorClass(Poly.var("c1.a"), Poly.var("c1.c"))
        self.free, self.r = cr.ScrollContext(Poly.var("e"), c1, Poly.var("c2")), Poly.var("r")
        self.classes = tuple(
            cr.ChowClass(*(Poly.var(f"{name}.{field}") for field in cr.ChowClass._fields))
            for name in "xyz")
        self.divisors = (*(sl.DivisorClass(Poly.var(f"D{i}.a"), Poly.var(f"D{i}.c"))
                           for i in "123"), Poly.var("k"))
        u, p, q, w1, w2, w3, c3 = map(Poly.var, ("u", "p", "q", "w1", "w2", "w3", "c3"))
        self.tangent = (-cr.ChowClass(xi=u, h1=p, h2=q), cr.ChowClass(xih1=w1, xih2=w2, p=w3),
                        cr.ChowClass(pt=c3))

    def vanishes(self, name: str) -> bool:
        """Whether the remainder called name is zero in every slot."""
        if name not in self._verdicts:
            self._verdicts[name] = _zero(getattr(self, name))
        return self._verdicts[name]

    @_once
    def ring_axioms(self) -> tuple[tuple[str, cr.ChowClass], ...]:
        return _ring_axioms(self.free, *self.classes)

    @_once
    def bilinear(self) -> tuple[tuple[str, Poly], ...]:
        return _bilinear(self.free.e, *self.divisors)

    @_once
    def ell2(self) -> Poly:
        return _ell2(self.free, self.r)

    @_once
    def ring_routes(self) -> tuple[cr.ChowClass, ...]:
        return (_relation(self.free), *_ring_numbers(self.free, self.tangent))

    @_once
    def tangent_c2(self) -> tuple[cr.ChowClass, ...] | int:
        """chern_TX on the free context less its classes at c2 = 0, or 1 where its
        checks raise on the variables.  It is straight-line but for guards that
        raise on an inequality, so where this vanishes its checks are identities
        and a sweep may share its classes among the contexts of one e and c1."""
        try:
            with_c2, at_0 = cr.chern_TX(self.free), cr.chern_TX(self.free._replace(c2=0))
        except ConsistencyError:
            return 1
        return tuple(cls - base for cls, base in zip(with_c2, at_0))


def _zero(remainder) -> bool:
    """Whether a remainder of _Proofs, or a tuple of them with their labels, is zero."""
    if isinstance(remainder, tuple):
        return all(_zero(part) for part in remainder if not isinstance(part, str))
    return not remainder


class _Sweep(sl.SurfaceTables):
    """One surface F_e of the grid: the tables its identities and its members
    share, the chern_TX its members share, t_max, the bound of the window
    sweeps, and the run's _Proofs.  Nothing outlives the run, so a fault
    patched into one run_all is never seen by the next."""

    def __init__(self, e: int, t_max: int, proofs: _Proofs) -> None:
        super().__init__(e)
        self.t_max, self.proofs, self.tangents = t_max, proofs, {}


class _SweepMember(Member):
    """A member of a sweep, which reads its chern_TX from the sweep."""

    @_once
    def chern_TX(self) -> tuple[cr.ChowClass, cr.ChowClass, cr.ChowClass]:
        """chern_TX(chern), kept by the sweep under c1 where the run's proofs show
        it free of c2, so the first member with a c1 computes it, with its checks,
        for every other; else under the whole context, which is this member's
        alone.  A value that raises is not kept."""
        sweep = self.surface
        key = self.chern.c1 if sweep.proofs.vanishes("tangent_c2") else self.chern
        if key not in sweep.tangents:
            sweep.tangents[key] = cr.chern_TX(self.chern)
        return sweep.tangents[key]


def _proofs(member: Member) -> _Proofs:
    """The run's proofs for a member of a sweep; a member with its own tables
    proves them for itself."""
    surface = member.surface
    return surface.proofs if isinstance(surface, _Sweep) else _Proofs()


# the classes a*C0 + c*f with |a|, |c| <= 12 that the surface identities sweep
_CLASSES = tuple(sl.DivisorClass(a, c) for a in range(-12, 13) for c in range(-12, 13))


# ----------------------------------------------------------------- surface


@_register("K_{F_e} = -2*C0 - (e+2)*f (adjunction along C0 and f)")
def _check_canonical(rec: CheckResult, sweep: _Sweep) -> None:
    # adjunction cannot tell C0 from C0 + f, so the basis is pinned first
    e = sweep.e
    k = sl.canonical_class(e)
    basis = (sl.intersect(e, sl.C0, sl.C0), sl.intersect(e, sl.FIBER, sl.FIBER),
             sl.intersect(e, sl.C0, sl.FIBER))
    genus_c0 = sl.intersect(e, k, sl.C0) + basis[0]
    genus_f = sl.intersect(e, k, sl.FIBER) + basis[1]
    if not rec.case(basis == (-e, 0, 1) and genus_c0 == -2 and genus_f == -2):
        rec.fail(lambda: f"e={e}: K={k}, C0={sl.C0}, f={sl.FIBER}: (C0^2, f^2, C0.f) = "
                         f"{basis}, K.C0+C0^2={genus_c0}, K.f+f^2={genus_f}")


@_register("Serre duality: h^i(D) = h^{2-i}(K - D)")
def _check_serre(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    k = sl.canonical_class(e)
    for d in _CLASSES:
        tab = sweep[d]
        dual = sweep[k - d]
        if not rec.case((tab.h0, tab.h1, tab.h2) == (dual.h2, dual.h1, dual.h0)):
            rec.fail(lambda: f"e={e} D={d}: {tab.as_tuple()} vs dual {dual.as_tuple()}")


@_register("Riemann-Roch: chi(D) = 1 + D.(D-K)/2 with D.(D-K) even")
def _check_riemann_roch(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    k = sl.canonical_class(e)
    for d in _CLASSES:
        pairing = sl.intersect(e, d, d - k)
        tab = sweep[d]
        if not rec.case(pairing % 2 == 0 and tab.chi == 1 + pairing // 2):
            rec.fail(lambda: f"e={e} D={d}: pairing={pairing}, chi={tab.chi}")


@_register("h^0 = lattice-point count of the section polytope")
def _check_lattice_oracle(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    for d in _CLASSES:
        expected = sl.h0_lattice_oracle(e, d)
        got = sweep[d].h0
        if not rec.case(got == expected):
            rec.fail(lambda: f"e={e} D={d}: h0={got}, lattice count {expected}")


@_register("effective iff a >= 0 and c >= 0 iff h^0 > 0 (nonzero D)")
def _check_effective(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    for d in _CLASSES:
        eff = sl.is_effective(e, d)
        h0 = sweep[d].h0
        if d == sl.ZERO:
            if not rec.case(eff and h0 == 1):
                rec.fail(lambda: f"e={e}: h0(0) = {h0}")
        elif not rec.case(eff == (h0 > 0)):
            rec.fail(lambda: f"e={e} D={d}: effective={eff}, h0={h0}")


@_register("h^0(a*C0 + c*f) nondecreasing in c for a >= 0")
def _check_monotone(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    for a in range(0, 7):
        previous = None
        for c in range(-12, 13):
            h0 = sweep[sl.DivisorClass(a, c)].h0
            if previous is not None and not rec.case(h0 >= previous):
                rec.fail(lambda: f"e={e} a={a} c={c}: {previous} -> {h0}")
            previous = h0


@_register("intersection pairing symmetric and bilinear")
def _check_bilinear(rec: CheckResult, sweep: _Sweep) -> None:
    e, proofs = sweep.e, sweep.proofs
    proved = proofs.vanishes("bilinear")
    for prop, diff in proofs.bilinear if proved else _bilinear(e, *proofs.divisors):
        if not rec.case(proved or not diff):
            rec.fail(lambda: f"e={e}: {prop} fails, the difference is {diff}")


@_register("h^1 fiberwise route = h^1 chi-subtraction route")
def _check_h1_routes(rec: CheckResult, sweep: _Sweep) -> None:
    # cohomology() raises when its two h^1 routes disagree; on top of that
    # its closed-form fiberwise sums are recomputed term by term over the
    # pushforward degrees (of D when a >= 0, of K - D when a <= -2)
    e = sweep.e
    k = sl.canonical_class(e)
    for d in _CLASSES:
        try:
            tab = sweep[d]
        except ConsistencyError as exc:
            rec.case(False)
            rec.fail(f"e={e} D={d}: {exc}")
            continue
        if d.a == -1:
            if not rec.case(tab.as_tuple() == (0, 0, 0)):
                rec.fail(lambda: f"e={e} D={d}: {tab.as_tuple()}")
            continue
        h0 = h1 = 0
        for deg in sl.pushforward_degrees(e, d if d.a >= 0 else k - d):
            if deg >= 0:
                h0 += deg + 1
            else:
                h1 -= deg + 1
        got = (tab.h0, tab.h1) if d.a >= 0 else (tab.h2, tab.h1)
        if not rec.case(got == (h0, h1)):
            rec.fail(lambda: f"e={e} D={d}: table {tab.as_tuple()}, "
                             f"pushforward sums {(h0, h1)}")


# ------------------------------------------------------------------ bundle


@_register("c1 = A+B = L+M = 4*C0+(b+3e+6+t)*f, c2 = A.B = L.M+2 = 3b+8+t", "member")
def _check_chern_presentations(rec: CheckResult, member: Member) -> None:
    member.chern  # raises on a mismatch
    rec.case(True)


@_register("ell(c1, c2, 2, r) = b-t-2e-4 < 0 for every integer r", "member")
def _check_ell2(rec: CheckResult, member: Member) -> None:
    # the run's proofs show ell affine in r, so two integer values fix it, or
    # else are run at the member's e; a member off a sweep proves it itself
    params, proofs = member.params, _proofs(member)
    expected = params.b - params.t - 2 * params.e - 4
    ell = partial(bf.ell_invariant, member.chern, 2)
    affine = proofs.vanishes("ell2") or not _ell2(proofs.free._replace(e=params.e), proofs.r)
    ok = expected < 0 and affine and ell(0) == expected == ell(1)
    if not rec.case(ok):
        rec.fail(lambda: f"{params}: ell = {ell(Poly.var('r'))}, expected {expected}")


def _is_threshold(member: Member, d1: int, r: int) -> bool:
    """Whether r is the section threshold of E against -d1*C0, by its two neighbours.

    h^0(E(-d1*C0 + ell*f)), read from the member's surface tables, that is
    from cohomology() and not from the effectivity closed form in
    invariant_r, vanishes at ell = -r-1 and not at ell = -r.  As h^0 is
    nondecreasing in ell, that holds exactly when a scan over fiber twists
    finds r, with four table lookups whatever the size of r.
    """
    bun, tables = member.split, member.surface
    below, at = sl.DivisorClass(-d1, -r - 1), sl.DivisorClass(-d1, -r)
    return (tables[bun.A + below].h0 + tables[bun.B + below].h0 == 0
            < tables[bun.A + at].h0 + tables[bun.B + at].h0)


@_register("r = 3e+5+t and ell(c1, c2, 3, r) = 0: uniform of splitting type (3, 1)",
           "member")
def _check_uniformity(rec: CheckResult, member: Member) -> None:
    params = member.params
    evidence = member.uniformity  # raises unless ell2 = b-t-2e-4, ell3 = 0 and the types agree
    r = evidence.r
    ok = (
        r == 3 * params.e + 5 + params.t
        and _is_threshold(member, 2, bf.invariant_r(member.split, 2))
        and _is_threshold(member, 3, r)
    )
    if not rec.case(ok):
        rec.fail(lambda: f"{params}: r={r}, evidence={evidence}")


@_register("h^0(E) = 5e+2b+4t+28 = chi(Sym^1 E), h^1 = h^2 = 0, "
           "h^0(A) = 6e+4t+24, h^0(B) = 2b+4-e", "member")
def _check_bundle_cohomology(rec: CheckResult, member: Member) -> None:
    table = member.tables[2]
    if not rec.case(table.chi == bf.sym_chi(member.params.e, member.split, 1)):
        rec.fail(lambda: f"{member.params}: chi(E)={table.chi} != chi(Sym^1 E)")


@_register("h^1(A - B) = 0 iff b < 6+t+e (boundary sweep)")
def _check_window_v1(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    for t in range(sweep.t_max + 1):
        for b in range(-4, 2 * e + t + 12):
            h1 = sweep[sl.DivisorClass(2, 3 * e + 4 + t - b)].h1
            if not rec.case((h1 == 0) == (b < 6 + t + e)):
                rec.fail(lambda: f"e={e} t={t} b={b}: h1(A-B)={h1}")


@_register("h^2(B - A) = 0 iff b >= 2e+3+t (boundary sweep)")
def _check_window_v2(rec: CheckResult, sweep: _Sweep) -> None:
    e = sweep.e
    for t in range(sweep.t_max + 1):
        for b in range(-4, 2 * e + t + 12):
            h2 = sweep[sl.DivisorClass(-2, b - 3 * e - 4 - t)].h2
            if not rec.case((h2 == 0) == (b >= 2 * e + 3 + t)):
                rec.fail(lambda: f"e={e} t={t} b={b}: h2(B-A)={h2}")


# -------------------------------------------------------------------- chow


@_register("deg xi^3 = c1^2 - c2 (projective-bundle relation)", "member")
def _check_grothendieck(rec: CheckResult, member: Member) -> None:
    # the run's proofs show xi^3 - (c1^2 - c2)*pt zero for every context, or else
    # the member runs the relation, which does not lean on chern_TX, on its own
    d = member.d  # c1^2 - c2, which scroll_degree checks against 8e+5b+7t+40
    proofs, lhs = _proofs(member), d
    if not proofs.vanishes("ring_routes"):
        lhs = cr.degree(_relation(member.chern) + cr.ChowClass(pt=d))
    if not rec.case(lhs == d):
        rec.fail(lambda: f"{member.params}: deg xi^3={lhs}, c1^2-c2={d}")


def _a_term(diff: cr.ChowClass) -> str:
    """One nonzero monomial of a nonzero symbolic class, with its basis element."""
    field, poly = next((field, poly) for field, poly in zip(diff._fields, diff) if poly)
    return f"{Poly([min(poly.terms.items())])} in {field}"


@_register("Chow product commutative, associative, distributive")
def _check_ring_axioms(rec: CheckResult, sweep: _Sweep) -> None:
    # multiply is straight-line, so each axiom on variable classes and e, c1,
    # c2 is a polynomial identity, proved once per run, or else run at F_e's e
    e, proofs = sweep.e, sweep.proofs
    proved = proofs.vanishes("ring_axioms")
    for axiom, diff in (proofs.ring_axioms if proved
                        else _ring_axioms(proofs.free._replace(e=e), *proofs.classes)):
        if not rec.case(proved or not any(diff)):
            rec.fail(lambda: f"e={e}: {axiom} fails, the difference has {_a_term(diff)}")


@_register("intersection numbers match their closed forms in (d, e, b, t)", "member")
def _check_intersection_numbers(rec: CheckResult, member: Member) -> None:
    # intersection_numbers reads the numbers off K_X and c2(T_X) in one pass
    # and checks them against the closed forms; the run's proofs show each of
    # the six pairings equal to the degree of its full product in the ring for
    # every context and every K_X, c2(T_X) and c3(T_X) of their shape, and
    # where they do not the member runs the pairings on its own values
    nums, proofs = member.intersection_numbers, _proofs(member)
    by_ring = nums[:6]
    if not proofs.vanishes("ring_routes"):
        by_ring = tuple(cr.degree(diff + cr.ChowClass(pt=num))
                        for diff, num in zip(_ring_numbers(member.chern, member.chern_TX), nums))
    if not rec.case(nums[:6] == by_ring):
        rec.fail(lambda: f"{member.params}: numbers={nums}, by the ring={by_ring}")


@_register("deg c3(T_X) = 8 and -K.c2(T_X) = 24", "member")
def _check_chern_tx(rec: CheckResult, member: Member) -> None:
    member.chern_TX  # raises unless deg c3 = 8 and -K.c2 = 24, each by its full product
    rec.case(True)


# ------------------------------------------------------------------ scroll


@_register("P(m) = chi(Sym^m E) for m in [0, 8]; P(0) = 1; P(1) = n+1", "member")
def _check_hilbert_poly(rec: CheckResult, member: Member) -> None:
    # hilbert_polynomial reads P off chi(Sym^m E) at m = 0..3 and checks it
    # against Riemann-Roch on X (p0 = 1 there); the tests prove that the cubic
    # is chi(Sym^m E) for every m, and this comparison past its four values is
    # their oracle.  P(1) = chi(E) is compared with n+1 = h^0(E), read from
    # the table of E
    poly, params = member.hilbert_poly, member.params
    for m in range(4, 9):
        expected = bf.sym_chi(params.e, member.split, m)
        if poly.value_at(m) != expected:
            raise ConsistencyError(
                f"P(m) != chi(Sym^m E) at m={m}: "
                f"P={poly.value_at(m)}, chi={expected}"
            )
    p_of_1 = poly.value_at(1)
    if not rec.case(p_of_1 == member.n + 1):
        rec.fail(lambda: f"{params}: P(1)={p_of_1}, n={member.n}")


@_register("P(-1) = chi(O_X(-1)) = 0 (every R^i pi_* O_X(-1) vanishes on a P^1-bundle)",
           "member")
def _check_poly_integrality(rec: CheckResult, member: Member) -> None:
    # integrality needs no identity of its own: P(m)'s coefficients in the
    # binomial basis are integers; the name stays, as the benchmark's
    # per-identity timings are keyed by it
    p_minus_1 = member.hilbert_poly.value_at(-1)
    if not rec.case(p_minus_1 == 0):
        rec.fail(lambda: f"{member.params}: P(-1)={p_minus_1}")


@_register("d - 3e - 3b - 3t - 12 = n + 1", "member")
def _check_degree_dimension_identity(rec: CheckResult, member: Member) -> None:
    params = member.params
    n, d = member.n, member.d
    lhs = d - 3 * params.e - 3 * params.b - 3 * params.t - 12
    if not rec.case(lhs == n + 1):
        rec.fail(lambda: f"{params}: lhs={lhs}, n+1={n + 1}")


@_register("n = 5e+2b+4t+27 and d = 8e+5b+7t+40, each by two routes", "member")
def _check_n_d_routes(rec: CheckResult, member: Member) -> None:
    member.n  # bundle_cohomology raises unless h^0(E) = 5e+2b+4t+28
    member.d  # scroll_degree raises unless c1^2-c2 = 8e+5b+7t+40
    rec.case(True)


# ----------------------------------------------------------------- hilbert


@_register("chi(N) by HRR = (d-3e-3b-3t-12)*n + 122 + 21t + 21e + 21b - 3d", "member")
def _check_chi_normal(rec: CheckResult, member: Member) -> None:
    member.chi_N  # raises on a mismatch
    rec.case(True)


@_register("regime e<=2, b=2e+3+t: dim = chi(N) = n(n+1)+9e+20+6t and "
           "h^0(N) = (n+1)^2 - 1 - h^0(T_X) + h^1(T_X)", "regime")
def _check_component_dimension(rec: CheckResult, member: Member) -> None:
    member.h_of_N  # component_dimension raises on a mismatch
    rec.case(True)


@_register("regime e<=2, b=2e+3+t: h^0(T_X) = e+12, h^1(T_X) = e-1 for e > 0; "
           "(13, 0) at e = 0; chi(T_X) = 13", "regime")
def _check_tangent(rec: CheckResult, member: Member) -> None:
    member.tangent  # raises on a mismatch
    rec.case(True)


@_register("regime e<=2, b=2e+3+t: scroll-locus codimension = e-1 (e > 0), 0 (e = 0)",
           "regime")
def _check_codim(rec: CheckResult, member: Member) -> None:
    member.tangent  # the codimension is h^1(T_X), which tangent_cohomology checks
    rec.case(True)


@_register("e <= 2 and b = 2e+3+t imply the computed vanishings v1, v2, v3", "member")
def _check_flag_soundness(rec: CheckResult, member: Member) -> None:
    member.flags  # check_hypotheses raises when the regime lacks a vanishing
    rec.case(True)


@_register("chi(T_{F_e}) = 6: table (e+5, e-1, 0) for e > 0, (6, 0, 0) at e = 0")
def _check_fiber_tangent(rec: CheckResult, sweep: _Sweep) -> None:
    hc._fiber_tangent_table(sweep.e)  # raises unless chi = 6 by Riemann-Roch
    rec.case(True)


def _visit(checks: list[tuple[Callable, CheckResult]], subject, label: object) -> None:
    """Call each check on subject; a ConsistencyError is one failed case, at
    label, which is formatted only then."""
    for fn, rec in checks:
        try:
            fn(rec, subject)
        except ConsistencyError as exc:
            rec.case(False)
            rec.fail(f"{label}: {exc}")


def _visit_surface(sweep: _Sweep, surface: list, member: list, regime: list) -> tuple[int, int]:
    """The surface checks on sweep, then the member or regime checks on each
    valid member of F_e, every Member reading its tables from sweep; returns
    how many members, and how many regime members, were visited."""
    _visit(surface, sweep, f"e={sweep.e}")
    members = regime_members = 0
    for params in bf.surface_params(sweep.e, sweep.t_max):
        in_regime = params.paper_regime
        members += 1
        regime_members += in_regime
        _visit(regime if in_regime else member, _SweepMember(params, sweep), params)
    return members, regime_members


def run_all(e_max: int, t_max: int) -> list[CheckResult]:
    """Run every registered check over the grid; checks never abort each other.

    The grid is walked surface by surface, e = 0..e_max: the surface checks
    on one _Sweep of F_e, then the member checks on one Member per valid
    (e, b, t) of F_e, in iter_valid_params order, each Member sharing the
    sweep's tables.  So each table is computed once per surface, chern_TX
    once per c1 of the surface where the run's proofs allow it, and every
    other member value, with the cross-check that guards it, once per member.
    Every sweep shares the run's one _Proofs, so each symbolic identity is
    proved once per run, whatever e_max.
    Each is let go when the next one replaces it, so one surface's tables,
    and one member's data, are alive at a time; each check still sees its
    subjects in grid order.  A ConsistencyError raised while a check
    examines a surface or a member counts as one failed case of that check,
    labelled e=<e> or with the member's parameters, and the check goes on
    to the next subject; a value that raises is not kept, so a corrupted
    build reports every identity it breaks on every subject it breaks them
    at.  Results come in registration order.

    The walk is counted against the grid's closed forms: grid_member_count
    members, of which one per (e, t) with e <= min(e_max, 2) is in the
    regime.  A walk that misses a member, or a regime predicate that misses
    one, would leave identities unchecked while they pass, so a mismatch
    raises ConsistencyError.
    """
    results = [CheckResult(name) for name, _fn in _CHECKS]
    checks = [(fn, rec) for (_name, fn), rec in zip(_CHECKS, results)]
    surface = [(fn, rec) for fn, rec in checks if fn.sweep == "surface"]
    member = [(fn, rec) for fn, rec in checks if fn.sweep == "member"]
    regime = [(fn, rec) for fn, rec in checks if fn.sweep != "surface"]
    members = regime_members = 0
    proofs = _Proofs()
    for e in range(e_max + 1):
        # built in the call, so the last surface's sweep is gone before this one
        on_surface, in_regime = _visit_surface(_Sweep(e, t_max, proofs), surface, member,
                                               regime)
        members += on_surface
        regime_members += in_regime
    expected = (bf.grid_member_count(e_max, t_max), (min(e_max, 2) + 1) * (t_max + 1))
    if (members, regime_members) != expected:
        raise ConsistencyError(
            f"the walk of e <= {e_max}, t <= {t_max} visited {members} members, "
            f"{regime_members} in the regime; the grid has {expected[0]}, {expected[1]}"
        )
    return results
