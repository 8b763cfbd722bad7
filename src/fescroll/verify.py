"""Named identity checks swept over parameter grids.

Each check reports how many cases it examined and a list of failure
descriptions (empty on success).  Surface and window checks sweep their
own grids of divisor classes.  Member checks run once per valid
(e, b, t) and all read one shared Member, so every value of a member is
derived once per sweep and the cross-check that guards it runs once; a
value that raises is not kept, so each check that reads a broken value
reports it.  A ConsistencyError that a check does not catch aborts that
check alone, instead of the sweep, so a corrupted build reports every
identity it breaks, starting from the most elementary one.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from . import bundle_family as bf
from . import chow_ring as cr
from . import hilbert_component as hc
from . import surface_lattice as sl
from .errors import ConsistencyError
from .member import Member

_MAX_FAILURES = 8
_SEED = 20260817


class CheckResult:
    def __init__(self, name: str, cases: int, failures: list[str]) -> None:
        self.name = name
        self.cases = cases
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """Capped failure collector, with the check's own seeded sample stream."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[str] = []
        self.rng = random.Random(_SEED)

    def case(self, ok: bool, detail: str | Callable[[], str]) -> None:
        """Count one case; on failure keep its detail, up to the cap.

        A callable detail is called only when its failure is kept, so a
        passing case never pays for formatting it.
        """
        self.cases += 1
        if ok:
            return
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(detail() if callable(detail) else detail)
        elif len(self.failures) == _MAX_FAILURES:
            self.failures.append("... more failures suppressed")


# How a check sweeps, kept as a function attribute so that it survives
# functools.wraps: "grid" checks are called as fn(e_max, t_max) and return
# their recorder; "member" checks are called as fn(rec, member) for every
# valid member, "regime" checks only for members with e <= 2, b = 2e+3+t.
_CHECKS: list[tuple[str, Callable]] = []


def _register(name: str, sweep: str = "grid"):
    def wrap(fn: Callable) -> Callable:
        fn.sweep = sweep
        _CHECKS.append((name, fn))
        return fn

    return wrap


def _surfaces(e_max: int):
    return [sl.Surface(e) for e in range(e_max + 1)]


def _classes(bound: int = 12):
    return [
        sl.DivisorClass(a, c)
        for a in range(-bound, bound + 1)
        for c in range(-bound, bound + 1)
    ]


# ----------------------------------------------------------------- surface


@_register("K_{F_e} = -2*C0 - (e+2)*f (adjunction along C0 and f)")
def _check_canonical(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        k = sl.canonical_class(s)
        genus_c0 = sl.intersect(s, k, sl.C0) + sl.intersect(s, sl.C0, sl.C0)
        genus_f = sl.intersect(s, k, sl.FIBER) + sl.intersect(s, sl.FIBER, sl.FIBER)
        rec.case(
            genus_c0 == -2 and genus_f == -2,
            lambda: f"e={s.e}: K={k} fails adjunction: "
                    f"K.C0+C0^2={genus_c0}, K.f+f^2={genus_f}",
        )
    return rec


@_register("Serre duality: h^i(D) = h^{2-i}(K - D)")
def _check_serre(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        k = sl.canonical_class(s)
        for d in _classes():
            tab = sl.cohomology(s, d)
            dual = sl.cohomology(s, k - d)
            rec.case(
                (tab.h0, tab.h1, tab.h2) == (dual.h2, dual.h1, dual.h0),
                lambda: f"e={s.e} D={d}: {tab.as_tuple()} vs dual {dual.as_tuple()}",
            )
    return rec


@_register("Riemann-Roch: chi(D) = 1 + D.(D-K)/2 with D.(D-K) even")
def _check_riemann_roch(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        k = sl.canonical_class(s)
        for d in _classes():
            pairing = sl.intersect(s, d, d - k)
            tab = sl.cohomology(s, d)
            rec.case(
                pairing % 2 == 0 and tab.chi == 1 + pairing // 2,
                lambda: f"e={s.e} D={d}: pairing={pairing}, chi={tab.chi}",
            )
    return rec


@_register("h^0 = lattice-point count of the section polytope")
def _check_lattice_oracle(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        for d in _classes():
            expected = sl.h0_lattice_oracle(s, d)
            got = sl.cohomology(s, d).h0
            rec.case(got == expected,
                     lambda: f"e={s.e} D={d}: h0={got}, lattice count {expected}")
    return rec


@_register("effective iff a >= 0 and c >= 0 iff h^0 > 0 (nonzero D)")
def _check_effective(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        for d in _classes():
            eff = sl.is_effective(s, d)
            h0 = sl.cohomology(s, d).h0
            if d == sl.ZERO:
                rec.case(eff and h0 == 1, lambda: f"e={s.e}: h0(0) = {h0}")
            else:
                rec.case(eff == (h0 > 0),
                         lambda: f"e={s.e} D={d}: effective={eff}, h0={h0}")
    return rec


@_register("h^0(a*C0 + c*f) nondecreasing in c for a >= 0")
def _check_monotone(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for s in _surfaces(e_max):
        for a in range(0, 7):
            previous = None
            for c in range(-12, 13):
                h0 = sl.cohomology(s, sl.DivisorClass(a, c)).h0
                if previous is not None:
                    rec.case(h0 >= previous,
                             lambda: f"e={s.e} a={a} c={c}: {previous} -> {h0}")
                previous = h0
    return rec


@_register("intersection pairing symmetric and bilinear")
def _check_bilinear(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    rng = rec.rng
    for s in _surfaces(e_max):
        for _ in range(200):
            d1, d2, d3 = (
                sl.DivisorClass(rng.randint(-30, 30), rng.randint(-30, 30))
                for _ in range(3)
            )
            k = rng.randint(-5, 5)
            symmetric = sl.intersect(s, d1, d2) == sl.intersect(s, d2, d1)
            linear = sl.intersect(s, d1 + k * d2, d3) == sl.intersect(
                s, d1, d3
            ) + k * sl.intersect(s, d2, d3)
            rec.case(symmetric and linear, lambda: f"e={s.e} D1={d1} D2={d2} D3={d3} k={k}")
    return rec


@_register("h^1 fiberwise route = h^1 chi-subtraction route")
def _check_h1_routes(e_max: int, t_max: int) -> _Recorder:
    # cohomology() raises when its two h^1 routes disagree; on top of that
    # its closed-form fiberwise sums are recomputed term by term over the
    # pushforward degrees (of D when a >= 0, of K - D when a <= -2)
    rec = _Recorder()
    for s in _surfaces(e_max):
        k = sl.canonical_class(s)
        for d in _classes():
            try:
                tab = sl.cohomology(s, d)
            except ConsistencyError as exc:
                rec.case(False, f"e={s.e} D={d}: {exc}")
                continue
            if d.a == -1:
                rec.case(tab.as_tuple() == (0, 0, 0),
                         lambda: f"e={s.e} D={d}: {tab.as_tuple()}")
                continue
            degrees = sl.pushforward_degrees(s, d if d.a >= 0 else k - d)
            h0 = sum(max(0, deg + 1) for deg in degrees)
            h1 = sum(max(0, -deg - 1) for deg in degrees)
            got = (tab.h0, tab.h1) if d.a >= 0 else (tab.h2, tab.h1)
            rec.case(
                got == (h0, h1),
                lambda: f"e={s.e} D={d}: table {tab.as_tuple()}, "
                        f"pushforward sums {(h0, h1)}",
            )
    return rec


# ------------------------------------------------------------------ bundle


@_register("c1 = A+B = L+M = 4*C0+(b+3e+6+t)*f, c2 = A.B = L.M+2 = 3b+8+t", "member")
def _check_chern_presentations(rec: _Recorder, member: Member) -> None:
    try:
        member.chern
        rec.case(True, "")
    except ConsistencyError as exc:
        rec.case(False, str(exc))


@_register("ell(c1, c2, 2, r) = b-t-2e-4 < 0 for every r in [0, 40]", "member")
def _check_ell2(rec: _Recorder, member: Member) -> None:
    params = member.params
    expected = params.b - params.t - 2 * params.e - 4
    cd = member.chern
    ok = expected < 0 and all(
        bf.ell_invariant(cd, params.e, 2, r) == expected for r in range(0, 41)
    )
    rec.case(ok, lambda: f"{params}: expected {expected}")


def _r_by_scan(params: bf.FamilyParams, d1: int) -> int:
    """Section threshold r by a search over fiber twists: the oracle for invariant_r.

    Finds the smallest ell with h^0(E(-d1*C0 + ell*f)) > 0, h^0 from
    cohomology(), so it shares nothing with the effectivity closed form in
    invariant_r.  h^0 is nondecreasing in ell (each pushforward degree
    grows with ell), so a bisection over the window [-span, span] finds it
    with O(log span) cohomology calls.  For d1 in {1, 2, 3} the threshold
    provably lies inside the window; h^0 > 0 at its lower edge, or h^0 = 0
    at its upper edge, is an internal-consistency failure.
    """
    s = params.surface
    bun = bf.build_split(params)

    def h0(ell: int) -> int:
        twist = sl.DivisorClass(-d1, ell)
        return sl.cohomology(s, bun.A + twist).h0 + sl.cohomology(s, bun.B + twist).h0

    span = 3 * params.e + 6 + params.t + abs(params.b) + 4
    if h0(-span) != 0:
        raise ConsistencyError(f"section threshold below the scan window at {params}, d1={d1}")
    if h0(span) == 0:
        raise ConsistencyError(f"no section threshold in the scan window at {params}, d1={d1}")
    lo, hi = -span, span  # invariant: h0(lo) == 0 < h0(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if h0(mid) > 0:
            hi = mid
        else:
            lo = mid
    return -hi


@_register("r = 3e+5+t and ell(c1, c2, 3, r) = 0: uniform of splitting type (3, 1)",
           "member")
def _check_uniformity(rec: _Recorder, member: Member) -> None:
    params = member.params
    try:
        evidence = member.uniformity
        split = member.splitting_type
        r = evidence.r
        ok = (
            r == 3 * params.e + 5 + params.t
            and all(
                bf.invariant_r(params, d1) == _r_by_scan(params, d1)
                for d1 in (2, 3)
            )
            and evidence.uniform
            and evidence.ell3 == 0
            and split == (3, 1)
        )
        rec.case(ok, lambda: f"{params}: r={r}, evidence={evidence}")
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


@_register("h^0(E) = 5e+2b+4t+28 = chi(Sym^1 E), h^1 = h^2 = 0, "
           "h^0(A) = 6e+4t+24, h^0(B) = 2b+4-e", "member")
def _check_bundle_cohomology(rec: _Recorder, member: Member) -> None:
    params = member.params
    try:
        table = member.tables[2]
        rec.case(
            table.chi == bf.sym_chi(bf.build_split(params), 1),
            lambda: f"{params}: chi(E)={table.chi} != chi(Sym^1 E)",
        )
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


@_register("h^1(A - B) = 0 iff b < 6+t+e (boundary sweep)")
def _check_window_v1(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for e in range(e_max + 1):
        s = sl.Surface(e)
        for t in range(t_max + 1):
            for b in range(-4, 2 * e + t + 12):
                piece = sl.DivisorClass(2, 3 * e + 4 + t - b)
                h1 = sl.cohomology(s, piece).h1
                rec.case(
                    (h1 == 0) == (b < 6 + t + e),
                    lambda: f"e={e} t={t} b={b}: h1(A-B)={h1}",
                )
    return rec


@_register("h^2(B - A) = 0 iff b >= 2e+3+t (boundary sweep)")
def _check_window_v2(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for e in range(e_max + 1):
        s = sl.Surface(e)
        for t in range(t_max + 1):
            for b in range(-4, 2 * e + t + 12):
                piece = sl.DivisorClass(-2, b - 3 * e - 4 - t)
                h2 = sl.cohomology(s, piece).h2
                rec.case(
                    (h2 == 0) == (b >= 2 * e + 3 + t),
                    lambda: f"e={e} t={t} b={b}: h2(B-A)={h2}",
                )
    return rec


# -------------------------------------------------------------------- chow


@_register("deg xi^3 = c1^2 - c2 (projective-bundle relation)", "member")
def _check_grothendieck(rec: _Recorder, member: Member) -> None:
    params, ctx = member.params, member.ctx
    lhs = cr.degree(cr.prod(ctx, cr.XI, cr.XI, cr.XI))
    rhs = sl.intersect(params.surface, ctx.c1, ctx.c1) - ctx.c2
    rec.case(lhs == rhs, lambda: f"{params}: deg xi^3={lhs}, c1^2-c2={rhs}")


def _coefficients(rng: random.Random, count: int) -> list[int]:
    """count draws, each equal to what rng.randint(-9, 9) would return.

    randint(-9, 9) is -9 + rng._randbelow(19), which takes getrandbits(5)
    until the result is below 19; repeating that here reads the same bits,
    so the seeded sample stream is the one randint gives, at a fraction of
    its call overhead.
    """
    bits = rng.getrandbits
    out: list[int] = []
    while len(out) < count:
        r = bits(5)
        if r < 19:
            out.append(r - 9)
    return out


@_register("Chow product commutative, associative, distributive", "member")
def _check_ring_axioms(rec: _Recorder, member: Member) -> None:
    ctx = member.ctx
    for _ in range(6):
        k = _coefficients(rec.rng, 24)
        x, y, z = cr.ChowClass(*k[:8]), cr.ChowClass(*k[8:16]), cr.ChowClass(*k[16:])
        xy = cr.multiply(ctx, x, y)
        comm = xy == cr.multiply(ctx, y, x)
        assoc = cr.multiply(ctx, xy, z) == cr.multiply(ctx, x, cr.multiply(ctx, y, z))
        dist = cr.multiply(ctx, x, y + z) == xy + cr.multiply(ctx, x, z)
        rec.case(comm and assoc and dist, lambda: f"{member.params}: x={x}, y={y}, z={z}")


@_register("intersection numbers match their closed forms in (d, e, b, t)", "member")
def _check_intersection_numbers(rec: _Recorder, member: Member) -> None:
    try:
        member.intersection_numbers  # raises on a mismatch
        rec.case(True, "")
    except ConsistencyError as exc:
        rec.case(False, f"{member.params}: {exc}")


@_register("deg c3(T_X) = 8 and -K.c2(T_X) = 24", "member")
def _check_chern_tx(rec: _Recorder, member: Member) -> None:
    ctx = member.ctx
    try:
        c1x, c2x, c3x = member.chern_TX
        ok = (
            cr.degree(c3x) == 8
            and cr.degree(cr.multiply(ctx, c1x, c2x)) == 24
        )
        rec.case(ok, lambda: f"{member.params}")
    except ConsistencyError as exc:
        rec.case(False, f"{member.params}: {exc}")


# ------------------------------------------------------------------ scroll


@_register("P(m) = chi(Sym^m E) for m in [0, 8]; P(0) = 1; P(1) = n+1", "member")
def _check_hilbert_poly(rec: _Recorder, member: Member) -> None:
    try:
        member.hilbert_poly  # raises on a mismatch
        rec.case(True, "")
    except ConsistencyError as exc:
        rec.case(False, f"{member.params}: {exc}")


@_register("P(m) is an integer for every integer m (sampled on [-6, 6])", "member")
def _check_poly_integrality(rec: _Recorder, member: Member) -> None:
    poly = member.hilbert_poly
    ok = all(poly.is_integral_at(m) for m in range(-6, 7))
    rec.case(ok, lambda: f"{member.params}: {poly}")


@_register("d - 3e - 3b - 3t - 12 = n + 1", "member")
def _check_degree_dimension_identity(rec: _Recorder, member: Member) -> None:
    params = member.params
    n, d = member.n, member.d
    lhs = d - 3 * params.e - 3 * params.b - 3 * params.t - 12
    rec.case(lhs == n + 1, lambda: f"{params}: lhs={lhs}, n+1={n + 1}")


@_register("n = 5e+2b+4t+27 and d = 8e+5b+7t+40, each by two routes", "member")
def _check_n_d_routes(rec: _Recorder, member: Member) -> None:
    params = member.params
    e, b, t = params.e, params.b, params.t
    try:
        n, d = member.n, member.d  # d internally: chern, chow, closed form
        ok = n == 5 * e + 2 * b + 4 * t + 27 and d == 8 * e + 5 * b + 7 * t + 40
        rec.case(ok, lambda: f"{params}: n={n}, d={d}")
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


# ----------------------------------------------------------------- hilbert


@_register("chi(N) by HRR = (d-3e-3b-3t-12)*n + 122 + 21t + 21e + 21b - 3d", "member")
def _check_chi_normal(rec: _Recorder, member: Member) -> None:
    try:
        member.chi_N  # raises on a mismatch
        rec.case(True, "")
    except ConsistencyError as exc:
        rec.case(False, f"{member.params}: {exc}")


@_register("regime e<=2, b=2e+3+t: dim = chi(N) = n(n+1)+9e+20+6t and "
           "h^0(N) = (n+1)^2 - 1 - h^0(T_X) + h^1(T_X)", "regime")
def _check_component_dimension(rec: _Recorder, member: Member) -> None:
    params = member.params
    try:
        report = member.hilbert
        e, t, n = params.e, params.t, report.n
        ok = (
            report.dim_component == n * (n + 1) + 9 * e + 20 + 6 * t
            and n == 9 * e + 33 + 6 * t
            and report.hN == (report.chiN, 0, 0, 0)
        )
        rec.case(ok, lambda: f"{params}: report={report}")
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


@_register("regime e<=2, b=2e+3+t: h^0(T_X) = e+12, h^1(T_X) = e-1 for e > 0; "
           "(13, 0) at e = 0; chi(T_X) = 13", "regime")
def _check_tangent(rec: _Recorder, member: Member) -> None:
    params = member.params
    try:
        table = member.tangent
        e = params.e
        expected = (13, 0) if e == 0 else (e + 12, e - 1)
        ok = (
            (table.h0, table.h1) == expected
            and (table.h2, table.h3) == (0, 0)
            and table.chi == 13
        )
        rec.case(ok, lambda: f"{params}: {table}")
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


@_register("regime e<=2, b=2e+3+t: scroll-locus codimension = e-1 (e > 0), 0 (e = 0)",
           "regime")
def _check_codim(rec: _Recorder, member: Member) -> None:
    params = member.params
    try:
        codim = hc.scroll_locus_codim(params, member.tangent)
        expected = 0 if params.e == 0 else params.e - 1
        rec.case(codim == expected, lambda: f"{params}: codim={codim}")
    except ConsistencyError as exc:
        rec.case(False, f"{params}: {exc}")


@_register("e <= 2 and b = 2e+3+t imply the computed vanishings v1, v2, v3", "member")
def _check_flag_soundness(rec: _Recorder, member: Member) -> None:
    try:
        flags = member.flags
        sound = (not flags.paper_regime) or (flags.v1 and flags.v2 and flags.v3)
        rec.case(sound, lambda: f"{member.params}: {flags}")
    except ConsistencyError as exc:
        rec.case(False, f"{member.params}: {exc}")


@_register("chi(T_{F_e}) = 6: table (e+5, e-1, 0) for e > 0, (6, 0, 0) at e = 0")
def _check_fiber_tangent(e_max: int, t_max: int) -> _Recorder:
    rec = _Recorder()
    for e in range(e_max + 1):
        try:
            table = hc._fiber_tangent_table(e)
            rec.case(table[0] - table[1] + table[2] == 6, lambda: f"e={e}: {table}")
        except ConsistencyError as exc:
            rec.case(False, f"e={e}: {exc}")
    return rec


def run_all(e_max: int, t_max: int) -> list[CheckResult]:
    """Run every registered check over the grid; checks never abort each other.

    Member checks share one Member per valid (e, b, t), built in
    iter_valid_params order; a member's values are let go when the next
    member replaces it, so one member's data is alive at a time.  A check
    that raises ConsistencyError is reported as aborted, with 0 cases, and
    is not called again.  Results come in registration order.
    """
    # a recorder per check, or the message of the error that aborted it
    outcomes: list[_Recorder | str] = []
    for _name, fn in _CHECKS:
        try:
            outcomes.append(fn(e_max, t_max) if fn.sweep == "grid" else _Recorder())
        except ConsistencyError as exc:
            outcomes.append(f"aborted: {exc}")
    per_member = [(i, fn) for i, (_name, fn) in enumerate(_CHECKS) if fn.sweep != "grid"]
    for params in bf.iter_valid_params(e_max, t_max):
        member = Member(params)
        regime = params.e <= 2 and params.b == 2 * params.e + 3 + params.t
        for i, fn in per_member:
            rec = outcomes[i]
            if isinstance(rec, str) or (fn.sweep == "regime" and not regime):
                continue
            try:
                fn(rec, member)
            except ConsistencyError as exc:
                outcomes[i] = f"aborted: {exc}"
    return [
        CheckResult(name, 0, [outcome])
        if isinstance(outcome, str)
        else CheckResult(name, outcome.cases, outcome.failures)
        for (name, _fn), outcome in zip(_CHECKS, outcomes)
    ]
