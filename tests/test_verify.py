"""Internals of the verify battery: the threshold certificate for r, the
per-surface table memo, the per-run proofs that keep Poly out of the
surface and member loops, the Chow products made per c1 of a surface and
per run, the chern_TX faults that sharing it by c1 must not hide, a run
whose every proof verdict is forced false, the symbolic identities with
their sampled oracle, their straight-line premise and the mutants they
catch, the proof of P(m) = chi(Sym^m E) in Z[e, b, t, m] and the
comparison on [4, 8] that is its oracle, the recorder, how an error
raised inside an identity is counted, the guard identities that fail
when only a layer's own check catches a fault, the count of the walk,
the identity names the benchmark traces, and the identity that a broken
Chow pairing fails."""

import ast
import inspect
import json
import math
import random
import textwrap
import weakref
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from conftest import _mutant

import fescroll.cli as cli
from fescroll import bundle_family as bf
from fescroll import chow_ring as cr
from fescroll import hilbert_component as hc
from fescroll import scroll_invariants as si
from fescroll import surface_lattice as sl
from fescroll import verify
from fescroll.bundle_family import FamilyParams, build_split, invariant_r, iter_valid_params
from fescroll.errors import ConsistencyError
from fescroll.member import Member, _once
from fescroll.poly import Poly

CANONICAL = "K_{F_e} = -2*C0 - (e+2)*f (adjunction along C0 and f)"
UNIFORMITY = "r = 3e+5+t and ell(c1, c2, 3, r) = 0: uniform of splitting type (3, 1)"
ELL2 = "ell(c1, c2, 2, r) = b-t-2e-4 < 0 for every integer r"
RING_AXIOMS = "Chow product commutative, associative, distributive"
BILINEAR = "intersection pairing symmetric and bilinear"
GROTHENDIECK = "deg xi^3 = c1^2 - c2 (projective-bundle relation)"
NUMBERS = "intersection numbers match their closed forms in (d, e, b, t)"
FIBER_TANGENT = "chi(T_{F_e}) = 6: table (e+5, e-1, 0) for e > 0, (6, 0, 0) at e = 0"
P_MINUS_1 = "P(-1) = chi(O_X(-1)) = 0 (every R^i pi_* O_X(-1) vanishes on a P^1-bundle)"
P_OF_M = "P(m) = chi(Sym^m E) for m in [0, 8]; P(0) = 1; P(1) = n+1"
CHERN_TX = "deg c3(T_X) = 8 and -K.c2(T_X) = 24"

# -- threshold certificate -----------------------------------------------------


@pytest.mark.parametrize("d1", [2, 3])
@pytest.mark.parametrize("shift", [1, -1])
def test_shifted_threshold_fails_the_uniformity_identity(monkeypatch, capsys, d1, shift):
    for p in iter_valid_params(1, 1):
        r = invariant_r(build_split(p), d1)
        assert verify._is_threshold(Member(p), d1, r)
        assert not verify._is_threshold(Member(p), d1, r + shift)
    real = bf.invariant_r
    monkeypatch.setattr(bf, "invariant_r", lambda p, k: real(p, k) + shift * (k == d1))
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL")]
    assert code == 3
    assert any(line.endswith(UNIFORMITY) for line in failing)


@pytest.mark.parametrize("e, b, t", [(2, 3007, 3000), (0, 3, 0)])
def test_uniformity_identity_calls_cohomology_at_most_eight_times(monkeypatch, e, b, t):
    member = Member(FamilyParams(e, b, t))
    calls = []
    real = sl.cohomology

    def counting(e, d):
        calls.append(d)
        return real(e, d)

    monkeypatch.setattr(sl, "cohomology", counting)
    rec = verify.CheckResult("identity")
    verify._check_uniformity(rec, member)
    assert (rec.cases, rec.failures) == (1, [])
    assert len(calls) <= 8


def _poly_counter(monkeypatch):
    """run(e_max, t_max): the variables Poly.var names in run_all, how many
    Poly results its arithmetic makes, each through the constructor, and how
    many times it tests a Poly for truth."""
    names, made = Counter(), Counter()
    real_init, real_var, real_bool = Poly.__init__, Poly.var, Poly.__bool__

    def init(self, pairs):
        made["polys"] += 1
        real_init(self, pairs)

    def var(cls, name):
        names[name] += 1
        return real_var(name)

    def truth(self):
        made["truths"] += 1
        return real_bool(self)

    monkeypatch.setattr(Poly, "__init__", init)
    monkeypatch.setattr(Poly, "var", classmethod(var))
    monkeypatch.setattr(Poly, "__bool__", truth)

    def run(e_max, t_max):
        names.clear()
        made.clear()
        assert all(result.ok for result in verify.run_all(e_max, t_max))
        return Counter(names), made["polys"], made["truths"]

    return run


def test_run_all_builds_polys_once_per_run(monkeypatch):
    # the ring axioms, bilinearity, ell affine in r, the two Chow routes and
    # chern_TX free of c2 are proved once per run, with e a variable, and
    # whether each remainder vanishes is decided once; each surface and
    # member evaluates in integers
    run = _poly_counter(monkeypatch)
    names, made, truths = run(0, 1)
    assert {"e", "r", "c1.a", "c1.c", "c2", "k", "u", "p", "q", "w1", "w2", "w3",
            "c3"} <= set(names)
    assert truths
    # (1, 1) has 20 members on two surfaces, (1, 3) has 48 on two and (8, 1)
    # has 153 on nine: a passing surface or member makes and tests no Poly
    assert run(1, 1) == run(1, 3) == run(8, 1) == (names, made, truths)


def test_an_ell_quadratic_in_r_fails_the_ell2_identity_and_leaves_no_trace(
        monkeypatch, capsys):
    # 2*d1*r*r equals 2*d1*r at r = 0 and r = 1, the two points each member
    # reads, so only the sweep's proof that ell is affine in r can see it
    quadratic = _mutant(bf.ell_invariant, "+ 2 * d1 * r", "+ 2 * d1 * r * r")
    cd = Member(FamilyParams(2, 7, 0)).chern
    assert all(quadratic(cd, 2, 2, r) == bf.ell_invariant(cd, 2, 2, r) for r in (0, 1))
    argv = ["verify", "--e-max", "2", "--t-max", "2"]
    with monkeypatch.context() as patch:
        patch.setattr(bf, "ell_invariant", quadratic)
        assert cli.main(argv) == 3
        failing = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("FAIL")]
        assert f"FAIL  [{bf.grid_member_count(2, 2):6d} cases]  {ELL2}" in failing
    # the proof lives on the run's sweeps, so the next run proves it afresh
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_an_ell2_remainder_vanishing_at_e_0_and_1_fails_only_larger_surfaces(
        monkeypatch, capsys):
    # e*(e-1)*r*(r-1) is zero at r = 0 and r = 1, the two points each member
    # reads, and the remainder it leaves is zero on F_0 and F_1 only: the run
    # finds it nonzero, so each member reads it at its own e
    fault = _mutant(bf.ell_invariant, "+ 2 * d1 * r",
                    "+ 2 * d1 * r + e * (e - 1) * r * (r - 1)")
    cd = Member(FamilyParams(2, 7, 0)).chern
    assert all(fault(cd, 2, 2, r) == bf.ell_invariant(cd, 2, 2, r) for r in (0, 1))
    argv = ["verify", "--e-max", "3", "--t-max", "1"]
    with monkeypatch.context() as patch:
        patch.setattr(bf, "ell_invariant", fault)
        patch.setattr(verify, "_MAX_FAILURES", 1000)
        assert cli.main(argv) == 3
        capsys.readouterr()
        ell2 = _results_by_name(3, 1)[ELL2]
        assert ell2.cases == bf.grid_member_count(3, 1)
        assert _failing_members(ell2) == {str(p) for p in iter_valid_params(3, 1)
                                          if p.e >= 2}
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_a_c0_of_c0_plus_f_fails_the_canonical_identity(monkeypatch, capsys):
    # C0 + f satisfies adjunction as C0 does, so only the pinned basis
    # C0^2 = -e, f^2 = 0, C0.f = 1 tells them apart
    monkeypatch.setattr(sl, "C0", sl.DivisorClass(1, 1))
    assert cli.main(["verify", "--e-max", "3", "--t-max", "3"]) == 3
    failing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failing == [f"FAIL  [     4 cases]  {CANONICAL}"]
    canonical = _results_by_name(0, 0)[CANONICAL]
    assert canonical.failures == [
        "e=0: K=DivisorClass(a=-2, c=-2), C0=DivisorClass(a=1, c=1), "
        "f=DivisorClass(a=0, c=1): (C0^2, f^2, C0.f) = (2, 0, 1), K.C0+C0^2=-2, K.f+f^2=-2"]


# -- per-surface table memo ----------------------------------------------------


def test_surface_identities_compute_each_class_once_per_surface(monkeypatch):
    # every cohomology call of run_all, the member identities and the
    # threshold certificate included, reads the one sweep of its surface
    computed = Counter()
    real = sl.cohomology

    def counting(e, d):
        computed[e, d.a, d.c] += 1
        return real(e, d)

    sweeps, alive_at_creation = [], []

    class TrackedSweep(verify._Sweep):
        def __init__(self, *args):
            alive_at_creation.append(sum(ref() is not None for ref in sweeps))
            super().__init__(*args)
            sweeps.append(weakref.ref(self))

    monkeypatch.setattr(sl, "cohomology", counting)
    monkeypatch.setattr(verify, "_Sweep", TrackedSweep)
    for _ in range(2):
        assert all(result.ok for result in verify.run_all(1, 2))
    # once per surface in each run: no table outlives its run_all
    assert computed and set(computed.values()) == {2}
    # among them the five tables of every member and the twists that
    # certify its thresholds
    for p in iter_valid_params(1, 2):
        bun = build_split(p)
        classes = [bun.A, bun.B, bun.A - bun.B, sl.ZERO, bun.B - bun.A]
        for d1 in (2, 3):
            r = invariant_r(bun, d1)
            twists = (sl.DivisorClass(-d1, ell) for ell in (-r - 1, -r))
            classes += (summand + twist for twist in twists for summand in (bun.A, bun.B))
        assert all((p.e, d.a, d.c) in computed for d in classes)
    # one sweep per surface, each gone before the next is built and after run_all
    assert alive_at_creation == [0, 0, 0, 0]
    assert all(ref() is None for ref in sweeps)


def _surface_c1s(e_max: int, t_max: int) -> int:
    """How many (e, c1) the members of the grid have."""
    return len({(p.e, Member(p).chern.c1) for p in iter_valid_params(e_max, t_max)})


def test_run_all_multiplies_3_times_per_c1_of_a_surface_and_18_per_run(monkeypatch):
    # per (e, c1): the 3 of chern_TX, on integers, shared by the members of
    # F_e with that c1; per run, on Poly: the 7 products of the ring-axiom
    # proof, the 8 of the proof of the two Chow routes (xi^2, xi^3, K^2 and
    # five pairings) and the 3 of chern_TX on variables, whatever e_max
    calls, depth = Counter(), [0]
    real_multiply, real_chern_tx = cr.multiply, cr.chern_TX

    def multiply(ctx, x, y):
        calls[isinstance(ctx.e, Poly), depth[0] > 0] += 1
        return real_multiply(ctx, x, y)

    def chern_tx(ctx):
        depth[0] += 1
        try:
            return real_chern_tx(ctx)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cr, "multiply", multiply)
    monkeypatch.setattr(cr, "chern_TX", chern_tx)
    for e_max, t_max in ((0, 1), (2, 1), (5, 1), (8, 12)):
        calls.clear()
        assert all(result.ok for result in verify.run_all(e_max, t_max))
        assert calls == {(False, True): 3 * _surface_c1s(e_max, t_max), (True, False): 15,
                         (True, True): 3}
    assert (_surface_c1s(8, 12), calls.total()) == (288, 882)


def test_ell2_identity_on_a_member_with_its_own_tables_proves_ell_itself():
    # off a sweep there are no run proofs to read, so each identity that reads
    # one, ell affine in r and the two Chow routes, proves it for itself and
    # counts its case
    member = Member(FamilyParams(2, 7, 0))
    for name, check in ((ELL2, verify._check_ell2), (GROTHENDIECK, verify._check_grothendieck),
                        (NUMBERS, verify._check_intersection_numbers)):
        rec = verify.CheckResult(name)
        check(rec, member)
        assert (rec.cases, rec.failures) == (1, []), name


def _per_surface_ring_axiom_failures(multiply, e):
    """The failure lines of the ring-axiom identity proved on F_e alone, with e
    an integer: the oracle of the proof with e a variable."""
    c1 = sl.DivisorClass(Poly.var("c1.a"), Poly.var("c1.c"))
    ctx = cr.ScrollContext(e, c1, Poly.var("c2"))
    x, y, z = (cr.ChowClass(*(Poly.var(f"{name}.{field}") for field in cr.ChowClass._fields))
               for name in "xyz")
    xy = multiply(ctx, x, y)
    sides = (("commutativity", xy, multiply(ctx, y, x)),
             ("associativity", multiply(ctx, xy, z), multiply(ctx, x, multiply(ctx, y, z))),
             ("distributivity", multiply(ctx, x, y + z), xy + multiply(ctx, x, z)))
    return [f"e={e}: {axiom} fails, the difference has {verify._a_term(lhs - rhs)}"
            for axiom, lhs, rhs in sides if lhs != rhs]


def test_a_multiply_fault_vanishing_at_e_0_and_1_fails_only_larger_surfaces(monkeypatch, capsys):
    # e*(e-1) is zero on F_0 and F_1 only: the proof with e a variable fails
    # on each other surface with the lines a proof on that surface prints
    fault = _mutant(cr.multiply, "+ (xh1 * yh2 + xh2 * yh1),",
                    "+ (xh1 * yh2 + xh2 * yh1) + e * (e - 1) * xh1 * yh2,")
    monkeypatch.setattr(cr, "multiply", fault)
    assert cli.main(["verify", "--e-max", "1", "--t-max", "1"]) == 0
    capsys.readouterr()
    failures = _results_by_name(3, 1)[RING_AXIOMS].failures
    assert failures[0] == "e=2: commutativity fails, the difference has 2*x.h1*y.h2 in p"
    by_surface = (_per_surface_ring_axiom_failures(fault, e) for e in range(4))
    assert failures == [line for lines in by_surface for line in lines]


def test_a_pairing_asymmetric_past_f_1_fails_the_bilinear_identity_there(monkeypatch):
    # e*(e-1)*D1.a*D2.c is zero on F_0 and F_1 only: the run finds the
    # symmetry remainder nonzero, and each surface reads it at its own e
    fault = _mutant(sl.intersect, "- e * d1.a * d2.a",
                    "- e * d1.a * d2.a + e * (e - 1) * d1.a * d2.c")
    monkeypatch.setattr(sl, "intersect", fault)
    assert _results_by_name(1, 1)[BILINEAR].ok
    bilinear = _results_by_name(3, 1)[BILINEAR]
    assert bilinear.cases == 8
    assert bilinear.failures == [
        "e=2: symmetry fails, the difference is 2*D1.a*D2.c + -2*D1.c*D2.a",
        "e=3: symmetry fails, the difference is 6*D1.a*D2.c + -6*D1.c*D2.a"]


# -- symbolic identities ------------------------------------------------------


def _multiply_adds_a_point(real):
    # x*y gains a point when x has constant term 7 and y does not: a fault
    # that branches on values, which no identity on symbols can see
    def multiply(ctx, x, y):
        extra = cr.ChowClass(pt=1 if x.z == 7 != y.z else 0)
        return real(ctx, x, y) + extra
    return multiply


def _sampled_ring_axiom_failures(multiply):
    """Members of (4, 6) where multiply breaks an axiom on six seeded random triples."""
    rng = random.Random(20260817)
    failing = []
    for p in iter_valid_params(4, 6):
        ctx = Member(p).ctx
        for _ in range(6):
            x, y, z = (cr.ChowClass(*(rng.randint(-9, 9) for _ in range(8)))
                       for _ in range(3))
            xy = multiply(ctx, x, y)
            if not (xy == multiply(ctx, y, x)
                    and multiply(ctx, xy, z) == multiply(ctx, x, multiply(ctx, y, z))
                    and multiply(ctx, x, y + z) == xy + multiply(ctx, x, z)):
                failing.append(p)
    return failing


def test_sampled_ring_axioms_are_the_oracle_for_value_branching_faults(monkeypatch):
    assert _sampled_ring_axiom_failures(cr.multiply) == []
    fault = _multiply_adds_a_point(cr.multiply)
    assert _sampled_ring_axiom_failures(fault)
    # the symbolic identity reads x.z == 7 as false and misses the fault
    monkeypatch.setattr(cr, "multiply", fault)
    assert _results_by_name(1, 1)[RING_AXIOMS].ok


_BRANCHING = (ast.If, ast.IfExp, ast.Compare, ast.BoolOp, ast.Match, ast.For, ast.AsyncFor,
              ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_DIVIDING = (ast.Div, ast.FloorDiv, ast.Mod)


def _is_guard(node: ast.AST) -> bool:
    """Whether node is `if x != y: raise ...` and nothing else."""
    return (isinstance(node, ast.If) and not node.orelse and len(node.body) == 1
            and isinstance(node.body[0], ast.Raise) and isinstance(node.test, ast.Compare)
            and all(isinstance(op, ast.NotEq) for op in node.test.ops))


def _value_branches(code) -> list[str]:
    """The branching and dividing nodes of code's source, but for its guards."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(code)))
    guards = {id(part) for node in ast.walk(tree) if _is_guard(node)
              for part in (node, node.test)}
    return [type(node).__name__ for node in ast.walk(tree)
            if isinstance(node, _BRANCHING + _DIVIDING) and id(node) not in guards]


@pytest.mark.parametrize(
    "code",
    [cr.multiply, cr.ScrollContext, cr.ChowClass, sl.DivisorClass, sl.intersect,
     bf.ell_invariant, bf._twelve_sym_chi, cr.chern_TX, cr.canonical_class_X, cr.pullback,
     sl.canonical_class],
    ids=lambda code: code.__qualname__,
)
def test_code_proved_on_symbols_is_straight_line(code):
    # a branch or a loop on values runs one path for the symbols and may
    # take another for some integers, so the proof would not cover them: a
    # test of e would make verify's one proof in e differ from a proof on
    # F_e; a division of a polynomial need not be one, so nothing divides
    # either.  The one test allowed is a guard that raises when two values
    # differ: where they are equal polynomials they are equal at every
    # integer, so a guard that passes on the symbols passes everywhere, as
    # chern_TX's checks must for verify to share its classes by c1
    assert _value_branches(code) == []


def test_a_value_branch_is_not_a_guard():
    def branching(ctx):
        if ctx.e == 1:
            raise ConsistencyError("F_1")
        if ctx.c2 != 0:
            return ctx
        if ctx.e != 0:
            raise ConsistencyError("F_e")
        return ctx

    assert _value_branches(branching) == ["If", "If", "Compare", "Compare"]


def _ell_plus_a_product_vanishing_on_0_to_40(real):
    def ell_invariant(cd, e, d1, r):
        extra = math.prod(r - j for j in range(41)) if d1 == 2 else 0
        return real(cd, e, d1, r) + extra
    return ell_invariant


# each mutant, by the module it replaces a function of, the identity that
# must fail and one that must still pass
MUTANTS = {
    "xixi*ca to xixi*cc": (
        cr, _mutant(cr.multiply, "xixi * ca,", "xixi * cc,"), RING_AXIOMS, None),
    "e*(xh1*yh1) to e*(xh1*yh2)": (
        cr, _mutant(cr.multiply, "e * (xh1 * yh1)", "e * (xh1 * yh2)"), RING_AXIOMS, None),
    "doubled xp*yxi": (
        cr, _mutant(cr.multiply, "(xxi * yp + xp * yxi)", "(xxi * yp + 2 * xp * yxi)"),
        RING_AXIOMS, None),
    # c2 is a free variable of the ring-axiom proof, which passes; the proof
    # of the two Chow routes sees it doubled
    "doubled c2": (
        cr, _mutant(cr.multiply, "xixi * ctx.c2", "xixi * 2 * ctx.c2"), GROTHENDIECK,
        RING_AXIOMS),
    # zero at every r in [0, 40], which the threshold r3 never leaves on (1, 1)
    "ell plus prod(r - j)": (
        bf, _ell_plus_a_product_vanishing_on_0_to_40(bf.ell_invariant), ELL2, UNIFORMITY),
}


E, B, T, M = (Poly.var(name) for name in "ebtm")


def _twelve_p_minus(member, twelve_sym_chi):
    """12 P(m) - twelve_sym_chi(E, m) on the symbolic member and a variable m.

    P's binomial coefficients (p0, p1, p2, p3) are the member's own
    hilbert_poly, which reads them off sym_chi at m = 0..3 and checks them
    against Riemann-Roch on X, all on the variables e, b and t.
    """
    p0, p1, p2, p3 = member.hilbert_poly
    twelve_p = 12 * p0 + 12 * p1 * M + 6 * p2 * M * (M - 1) + 2 * p3 * M * (M - 1) * (M - 2)
    return twelve_p - twelve_sym_chi(member.split, M)


def test_p_of_m_is_chi_of_sym_m_e_in_z_e_b_t_m(symbolic_member):
    # _twelve_sym_chi is straight-line and divides nowhere, so on variables it
    # is 12 chi(Sym^m E) of every member at every m >= 0 at once: the cubic
    # through m = 0..3 is chi(Sym^m E) for every m, and verify's comparison
    # on [4, 8] is the oracle of this proof
    member = symbolic_member(E, B, T)
    assert _twelve_p_minus(member, bf._twelve_sym_chi) == 0
    # so P(-1) = chi(O_X(-1)) = 0, which verify checks member by member
    assert bf._twelve_sym_chi(member.split, -1) == 0


def test_a_mutant_of_the_six_s2_term_fails_the_identity_in_m(symbolic_member):
    mutant = _mutant(bf._twelve_sym_chi, "m * (m + 1) * (2 * m + 1)", "m * (m + 1) * (2 * m - 1)")
    assert _twelve_p_minus(symbolic_member(E, B, T), mutant) != 0


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_mutant_fails_its_identity(monkeypatch, mutant):
    module, fn, failing, passing = MUTANTS[mutant]
    monkeypatch.setattr(module, fn.__name__, fn)
    results = _results_by_name(1, 1)
    assert not results[failing].ok
    if failing == RING_AXIOMS:
        assert any(axiom in results[failing].failures[0]
                   for axiom in ("commutativity", "associativity", "distributivity"))
    if passing:
        assert results[passing].ok


# -- recorder -----------------------------------------------------------------


def _detail_not_called():
    raise AssertionError("a detail was formatted that is not kept")


def test_recorder_formats_no_detail_of_a_passing_case():
    rec = verify.CheckResult("identity")
    assert all(rec.case(True) for _ in range(100))
    assert rec.cases == 100 and rec.failures == []


def test_recorder_caps_failures_and_formats_only_kept_ones():
    rec = verify.CheckResult("identity")
    for i in range(verify._MAX_FAILURES):
        assert not rec.case(False)
        rec.fail(lambda i=i: f"failure {i}")
    for _ in range(20):
        rec.case(False)
        rec.fail(_detail_not_called)
    rec.case(False)
    rec.fail("a plain string detail past the cap")
    assert rec.cases == verify._MAX_FAILURES + 21
    assert rec.failures == [
        *(f"failure {i}" for i in range(verify._MAX_FAILURES)),
        "... more failures suppressed",
    ]


def test_recorder_keeps_string_details():
    rec = verify.CheckResult("identity")
    rec.fail("plain")
    rec.fail(lambda: "lazy")
    assert rec.failures == ["plain", "lazy"]


def _calls_named(tree, attr):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def test_every_identity_builds_its_detail_only_for_a_failing_case():
    # rec.case(ok) only counts, and each detail is a lambda handed to
    # rec.fail, which runs only when a case fails; a lambda anywhere else
    # would be built for every passing case too
    tree = ast.parse(Path(verify.__file__).read_text())
    cases = _calls_named(tree, "case")
    assert cases and all(len(call.args) == 1 and not call.keywords
                         and not isinstance(call.args[0], ast.Starred) for call in cases)
    in_fail = {id(node) for call in _calls_named(tree, "fail")
               for arg in call.args for node in ast.walk(arg)}
    lambdas = [node for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    assert lambdas and all(id(node) in in_fail for node in lambdas)


def test_an_identity_failing_every_case_formats_only_its_kept_details(monkeypatch):
    # the lattice identity fails all 2 * 625 classes of (1, 1); only the
    # eight kept details format their class, so repr runs eight times
    reprs = []
    real_repr = sl.DivisorClass.__repr__

    def counting_repr(self):
        reprs.append(tuple(self))
        return real_repr(self)

    monkeypatch.setattr(sl, "h0_lattice_oracle", lambda e, d: -1)
    monkeypatch.setattr(sl.DivisorClass, "__repr__", counting_repr)
    results = _results_by_name(1, 1)
    lattice = results.pop(LATTICE)
    assert lattice.cases == 2 * len(verify._CLASSES) == 1250
    assert len(lattice.failures) == verify._MAX_FAILURES + 1
    assert lattice.failures[-1] == "... more failures suppressed"
    assert len(reprs) == verify._MAX_FAILURES
    assert all(result.ok for result in results.values())


# -- errors raised inside an identity ----------------------------------------

LATTICE = "h^0 = lattice-point count of the section polytope"


def _results_by_name(e_max, t_max):
    return {result.name: result for result in verify.run_all(e_max, t_max)}


def test_an_error_on_one_surface_is_one_failed_case_of_that_surface(monkeypatch):
    real = sl.h0_lattice_oracle

    def oracle(e, d):
        if e == 1:
            raise ConsistencyError("lattice count unavailable")
        return real(e, d)

    monkeypatch.setattr(sl, "h0_lattice_oracle", oracle)
    results = _results_by_name(2, 0)
    lattice = results.pop(LATTICE)
    assert lattice.failures == ["e=1: lattice count unavailable"]
    # every class of e = 0 and e = 2, and one case for e = 1
    assert lattice.cases == 2 * len(verify._CLASSES) + 1
    assert all(result.ok for result in results.values())


def test_an_error_on_every_member_is_one_failed_case_per_member(monkeypatch):
    def broken(member):
        raise ConsistencyError("P(m) unavailable")

    monkeypatch.setattr(Member, "hilbert_poly", property(broken))
    results = _results_by_name(1, 1)
    expected = [f"{p}: P(m) unavailable"
                for p in islice(iter_valid_params(1, 1), verify._MAX_FAILURES)]
    expected.append("... more failures suppressed")
    # the guard identity that computes P(m) and the one that evaluates it at -1
    for name in ("P(m) = chi(Sym^m E) for m in [0, 8]; P(0) = 1; P(1) = n+1", P_MINUS_1):
        result = results.pop(name)
        assert result.cases == bf.grid_member_count(1, 1)
        assert result.failures == expected
    assert all(result.ok for result in results.values())


# -- faults that only a layer's own check catches --------------------------------


def _verify_1_1_exit_code(capsys):
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    capsys.readouterr()
    return code


def test_a_wrong_fiber_tangent_table_fails_every_guard_that_forces_it(monkeypatch, capsys):
    # Riemann-Roch for T_{F_e} reads chi = 7, so _fiber_tangent_table raises,
    # and with it tangent_cohomology on every regime member
    real = hc.intersect
    monkeypatch.setattr(hc, "intersect", lambda e, x, y: real(e, x, y) + 2)
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    message = "chi(T_F) != 6 at e={}: table (6, 0, 0), RR 7"
    fiber = results.pop(FIBER_TANGENT)
    assert fiber.cases == 2
    assert fiber.failures == [f"e={e}: {message.format(e)}" for e in (0, 1)]
    regime = [p for p in iter_valid_params(1, 1) if p.paper_regime]
    for name, fn in verify._CHECKS:
        if fn.sweep == "regime":
            result = results.pop(name)
            assert result.cases == len(regime) == 4
            assert result.failures == [f"{p}: {message.format(p.e)}" for p in regime]
    assert all(result.ok for result in results.values())


def test_a_wrong_ell3_fails_the_uniformity_identity_through_splitting_type(
        monkeypatch, capsys):
    real = bf.ell_invariant
    monkeypatch.setattr(bf, "ell_invariant",
                        lambda cd, e, d1, r: real(cd, e, d1, r) + (d1 == 3))
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    uniformity = results.pop(UNIFORMITY)
    assert uniformity.cases == bf.grid_member_count(1, 1)
    members = islice(iter_valid_params(1, 1), verify._MAX_FAILURES)
    assert uniformity.failures == [
        *(f"{p}: expected ell(c1,c2,3,r) = 0 at {p}, r={3 * p.e + 5 + p.t}"
          for p in members),
        "... more failures suppressed",
    ]
    assert results[ELL2].ok
    assert all(result.ok for result in results.values())


def test_a_wrong_constant_term_fails_the_p_minus_one_and_p_of_m_identities(
        monkeypatch, capsys):
    # the layer's own check is bypassed, so only the routes that evaluate P
    # see it: P(-1) = 0, and the comparison with chi(Sym^m E) on [4, 8]
    real = si.hilbert_polynomial
    monkeypatch.setattr(si, "hilbert_polynomial", lambda *args: real(*args)._replace(p0=2))
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    p_minus_1, p_of_m = results.pop(P_MINUS_1), results.pop(P_OF_M)
    assert p_minus_1.cases == p_of_m.cases == bf.grid_member_count(1, 1)
    members = list(islice(iter_valid_params(1, 1), verify._MAX_FAILURES))
    assert p_minus_1.failures == [*(f"{p}: P(-1)=1" for p in members),
                                  "... more failures suppressed"]
    chi4 = [bf.sym_chi(build_split(p), 4) for p in members]
    assert p_of_m.failures == [
        *(f"{p}: P(m) != chi(Sym^m E) at m=4: P={chi + 1}, chi={chi}"
          for p, chi in zip(members, chi4)),
        "... more failures suppressed",
    ]
    assert all(result.ok for result in results.values())


@pytest.mark.parametrize("m", [4, 6, 8])
def test_a_wrong_sym_chi_past_the_coefficients_fails_the_p_of_m_identity(
        monkeypatch, capsys, m):
    # hilbert_polynomial reads chi(Sym^m E) at m = 0..3 only; the comparison
    # on [4, 8] sees a wrong value at either end of it and inside
    real = bf.sym_chi
    monkeypatch.setattr(bf, "sym_chi", lambda bundle, k: real(bundle, k) + (k == m))
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    p_of_m = results.pop(P_OF_M)
    assert p_of_m.cases == bf.grid_member_count(1, 1)
    first = next(iter_valid_params(1, 1))
    chi = real(build_split(first), m)
    assert p_of_m.failures[0] == (
        f"{first}: P(m) != chi(Sym^m E) at m={m}: P={chi}, chi={chi + 1}")
    assert all(result.ok for result in results.values())


def test_n_read_as_h0_of_e_fails_the_p_of_m_identity_at_p_of_1(monkeypatch, capsys):
    # P(1) = chi(E) = h^0(E), so an n of h^0(E) fails the P(1) = n+1 of the label
    wrong_n = _once(_mutant(vars(Member)["n"].fn, "self.tables[2].h0 - 1", "self.tables[2].h0"))
    monkeypatch.setattr(Member, "n", wrong_n)
    assert _verify_1_1_exit_code(capsys) == 3
    p_of_m = _results_by_name(1, 1)[P_OF_M]
    assert p_of_m.cases == bf.grid_member_count(1, 1)
    first = next(iter_valid_params(1, 1))
    h0 = Member(first).tables[2].h0
    assert p_of_m.failures[0] == f"{first}: P(1)={h0}, n={h0}"


def _count_sym_chi(monkeypatch) -> list:
    calls = []
    real = bf.sym_chi
    monkeypatch.setattr(bf, "sym_chi", lambda bundle, m: calls.append(m) or real(bundle, m))
    return calls


@pytest.mark.parametrize("command", ["report", "hilbpoly"])
def test_a_single_member_call_reads_sym_chi_at_m_0_to_3(monkeypatch, capsys, command):
    calls = _count_sym_chi(monkeypatch)
    assert cli.main([command, "-e", "2", "-b", "7", "-t", "0"]) == 0
    capsys.readouterr()
    assert calls == [0, 1, 2, 3]


def test_verify_reads_sym_chi_ten_times_per_member(monkeypatch, capsys):
    # m = 0..3 for P, m = 4..8 for the comparison and m = 1 for chi(E)
    calls = _count_sym_chi(monkeypatch)
    assert _verify_1_1_exit_code(capsys) == 0
    assert Counter(calls) == {m: bf.grid_member_count(1, 1) * (1 + (m == 1))
                              for m in range(9)}


# -- the count of the walk ------------------------------------------------------


def test_a_wrong_regime_predicate_exits_3_from_verify_and_report(monkeypatch, capsys):
    # with b = 2e+4+t no member is in the regime: the regime identities
    # would pass on 0 cases, and report would print no component
    wrong = property(
        _mutant(bf.FamilyParams.paper_regime.fget, "2 * self.e + 3", "2 * self.e + 4"))
    monkeypatch.setattr(bf.FamilyParams, "paper_regime", wrong)
    assert cli.main(["verify", "--e-max", "3", "--t-max", "3"]) == 3
    assert cli.main(["report", "-e", "2", "-b", "7", "-t", "0"]) == 3
    err = capsys.readouterr().err
    assert "the walk of e <= 3, t <= 3 visited 112 members, 0 in the regime; " \
           "the grid has 112, 12" in err
    assert "e <= 2 and b = 2e+3+t must hold iff v1, v2, v3 do; violated at " \
           "FamilyParams(e=2, b=7, t=0)" in err


def test_a_walk_that_misses_a_member_exits_3(monkeypatch, capsys):
    real = bf.surface_params
    monkeypatch.setattr(bf, "surface_params",
                        lambda e, t_max: [p for p in real(e, t_max) if p != (1, 3, 1)])
    with pytest.raises(ConsistencyError, match="visited 19 members, 4 in the regime; "
                                               "the grid has 20, 4$"):
        verify.run_all(1, 1)
    assert _verify_1_1_exit_code(capsys) == 3


# -- the benchmark's view of verify --------------------------------------------


def test_benchmark_traces_every_identity_by_its_function_name():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    prefix = "verify.identity_s."
    traced = {metric["name"].removeprefix(prefix) for metric in spec["per_layer"]
              if metric["name"].startswith(prefix)}
    assert traced == {fn.__name__ for _name, fn in verify._CHECKS}
    assert all(fn.sweep in ("surface", "member", "regime") for _name, fn in verify._CHECKS)


def test_checks_keep_the_28_traced_identities_in_golden_order():
    # bench/reference.py counts 28 identities; a dropped or reordered one
    # must show here, not only as a benchmark failure
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    prefix = "verify.identity_s."
    traced = [metric["name"].removeprefix(prefix) for metric in spec["per_layer"]
              if metric["name"].startswith(prefix)]
    golden = (root / "tests" / "golden" / "verify_4_6_plain.txt").read_text()
    labels = [line.split("]  ", 1)[1] for line in golden.splitlines()
              if line.startswith("PASS")]
    assert len(verify._CHECKS) == len(traced) == len(labels) == 28
    assert [fn.__name__ for _name, fn in verify._CHECKS] == traced
    assert [name for name, _fn in verify._CHECKS] == labels


# -- Chow pairings ------------------------------------------------------------


def test_an_oracle_reading_k3_as_k2l_fails_the_intersection_numbers_identity(
        monkeypatch, capsys):
    # the ring is the identity's own route, proved once per run: with the
    # proof's K^3 pairing read as K^2.L it must fail at the members
    wrong = _mutant(vars(verify._Proofs)["ring_routes"].fn, "(kk, k)", "(kk, xi)")
    monkeypatch.setattr(verify._Proofs, "ring_routes", _once(wrong))
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL")]
    assert code == 3
    assert failing == [f"FAIL  [    20 cases]  {NUMBERS}"]


def _failing_members(result: verify.CheckResult) -> set[str]:
    """The members named by an uncapped member identity's failure lines."""
    return {line.split(": ", 1)[0] for line in result.failures}


def _numeric_route_failures(multiply) -> tuple[list[str], list[str]]:
    """The failure lines of the projective-bundle relation and of the
    intersection numbers over (3, 2) when the full products are made member
    by member in integers and compared with d and with the reader: the oracle
    of the run's proof of the two Chow routes."""
    relation, numbers = [], []
    for p in iter_valid_params(3, 2):
        member = Member(p)
        ctx, d, nums = member.ctx, member.d, member.intersection_numbers
        c1x, c2x, _c3x = member.chern_TX
        k, xi = -c1x, cr.XI
        xx, kk = multiply(ctx, xi, xi), multiply(ctx, k, k)
        try:
            l3 = cr.degree(multiply(ctx, xx, xi))
            if l3 != d:
                relation.append(f"{p}: deg xi^3={l3}, c1^2-c2={d}")
        except ConsistencyError as exc:
            relation.append(f"{p}: {exc}")
        try:
            by_ring = tuple(cr.degree(multiply(ctx, x, y)) for x, y in
                            ((xx, xi), (xx, k), (kk, xi), (kk, k), (xi, c2x), (k, c2x)))
            if by_ring != nums[:6]:
                numbers.append(f"{p}: numbers={nums}, by the ring={by_ring}")
        except ConsistencyError as exc:
            numbers.append(f"{p}: {exc}")
    return relation, numbers


# multiply faults that chern_TX's own checks do not see: each touches only
# products of two classes with an xi term, and chern_TX multiplies none
ROUTE_FAULTS = {
    "doubled c2": MUTANTS["doubled c2"][1],
    # zero on F_0 and F_1, so only the members with e >= 2 fail
    "xixi*cc plus e*(e-1)*xixi": _mutant(cr.multiply, "xixi * cc,",
                                         "xixi * cc + e * (e - 1) * xixi,"),
    # a class of mixed degree: xi^2 gains e - 2 in degree 0
    "xz*yz plus (e-2)*xixi": _mutant(cr.multiply, "xz * yz,", "xz * yz + (e - 2) * xixi,"),
}


@pytest.mark.parametrize("fault", ROUTE_FAULTS)
def test_the_numeric_full_products_are_the_oracle_of_the_chow_route_proof(monkeypatch, fault):
    monkeypatch.setattr(cr, "multiply", ROUTE_FAULTS[fault])
    monkeypatch.setattr(verify, "_MAX_FAILURES", 1000)
    relation, numbers = _numeric_route_failures(ROUTE_FAULTS[fault])
    assert relation and numbers
    results = _results_by_name(3, 2)
    assert results[GROTHENDIECK].failures == relation
    assert results[NUMBERS].failures == numbers
    assert results[CHERN_TX].ok


def _intersection_numbers_failure(params: FamilyParams) -> str | None:
    """The failure line of a single member's intersection numbers, or None."""
    try:
        Member(params).intersection_numbers
    except ConsistencyError as exc:
        return f"{params}: {exc}"
    return None


def _chern_tx_plus(old: str, extra: str):
    """chern_TX with extra added to the class that old ends the expression of."""
    return _mutant(cr.chern_TX, old, f"{old} + ChowClass({extra})")


# chern_TX faults, each with whether the proof on variables lets a sweep share
# chern_TX by c1, the failure the intersection-number identity reports and the
# least e at which it does.  -K.c2 multiplies c2(T_X) by K's degree-0 slot,
# zero, so no check of chern_TX sees a point added to c2(T_X), and
# _read_numbers rejects the class; c2 points leave c2 in a slot
TANGENT_FAULTS = {
    "c2(T_X) plus c2 points": (_chern_tx_plus("c1_fiber) + _C2_FIBER", "pt=ctx.c2"), False,
                               "not a curve class", 0),
    "c2(T_X) plus a point": (_chern_tx_plus("c1_fiber) + _C2_FIBER", "pt=1"), True,
                             "not a curve class", 0),
    # deg c3 = 8 + e: the check raises on the variables, and on F_e for e > 0
    "c3(T_X) plus e points": (_chern_tx_plus("multiply(ctx, t_rel, _C2_FIBER)", "pt=ctx.e"),
                              False, "deg c3(T_X) != 8", 1),
}


@pytest.mark.parametrize("fault", TANGENT_FAULTS)
def test_a_chern_tx_fault_fails_verify_as_it_does_with_nothing_shared(
        monkeypatch, capsys, fault):
    # sharing chern_TX by c1 changes how often it is built, and nothing that
    # verify prints: the same exit code, lines and case counts as a run whose
    # proofs share nothing, where each member builds its own as report does
    wrong, shared, message, e_min = TANGENT_FAULTS[fault]
    builds = Counter()

    def counting(ctx):
        builds[isinstance(ctx.e, Poly)] += 1
        return wrong(ctx)

    monkeypatch.setattr(cr, "chern_TX", counting)
    assert verify._Proofs().vanishes("tangent_c2") is shared

    def run():
        builds.clear()
        code = cli.main(["verify", "--e-max", "2", "--t-max", "1"])
        out = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_MAX_FAILURES", 1000)
            results = {r.name: (r.cases, r.failures) for r in verify.run_all(2, 1)}
        return code, out, results, builds[False]

    code, out, results, integer_builds = run()
    real = verify._Proofs.vanishes
    monkeypatch.setattr(verify._Proofs, "vanishes",
                        lambda self, name: name != "tangent_c2" and real(self, name))
    assert (code, out, results) == run()[:3]
    assert code == 3
    # two runs: cli.main's and run_all's
    assert integer_builds == (2 * _surface_c1s(2, 1) if shared else builds[False])
    # the identity's lines are each member's own, as a Member of report reads them
    cases, failures = results[NUMBERS]
    assert cases == bf.grid_member_count(2, 1)
    assert failures == [line for p in iter_valid_params(2, 1)
                        if (line := _intersection_numbers_failure(p))]
    assert {line.split(": ", 1)[0] for line in failures} == {
        str(p) for p in iter_valid_params(2, 1) if p.e >= e_min}
    assert all(message in line for line in failures)


def test_a_run_whose_proofs_all_fail_reads_each_remainder_at_its_subjects(monkeypatch, capsys):
    # with every verdict forced false, each surface and member reads each
    # remainder at its own values and builds its own chern_TX; on a sound
    # engine that run has the same labels, case counts and output
    builds = Counter()
    real_chern_tx = cr.chern_TX

    def counting(ctx):
        builds[isinstance(ctx.e, Poly)] += 1
        return real_chern_tx(ctx)

    def run():
        builds.clear()
        code = cli.main(["verify", "--e-max", "2", "--t-max", "2"])
        results = [(r.name, r.cases, r.failures) for r in verify.run_all(2, 2)]
        return code, capsys.readouterr().out, results

    monkeypatch.setattr(cr, "chern_TX", counting)
    normal = run()
    assert normal[0] == 0 and all(not failures for _name, _cases, failures in normal[2])
    monkeypatch.setattr(verify._Proofs, "vanishes", lambda self, name: False)
    assert run() == normal
    # two runs, cli.main's and run_all's, each building one per member
    assert builds[False] == 2 * bf.grid_member_count(2, 2)


def test_a_members_point_gives_the_free_classes_its_own_values():
    # a remainder of the Chow-route proof is read at _point, where the proof's
    # free context, K_X, c2(T_X) and c3(T_X) must take the member's own values
    member = Member(FamilyParams(2, 7, 0))
    point = verify._point(member.ctx, member.chern_TX)
    u, p, q, w1, w2, w3, c3 = map(Poly.var, ("u", "p", "q", "w1", "w2", "w3", "c3"))
    tangent = (cr.ChowClass(xi=-u, h1=-p, h2=-q), cr.ChowClass(xih1=w1, xih2=w2, p=w3),
               cr.ChowClass(pt=c3))
    assert tuple(verify._at(x, point) for x in tangent) == member.chern_TX
    c1 = sl.DivisorClass(Poly.var("c1.a"), Poly.var("c1.c"))
    assert verify._at(cr.ScrollContext(Poly.var("e"), c1, Poly.var("c2")), point) == member.ctx


def test_a_reader_branching_on_e_fails_the_intersection_numbers_at_e_1(monkeypatch):
    # K^3 gains 1 only when e == 1, which is False for the variable e: the
    # proof of the two Chow routes is blind to it, and the per-member closed
    # forms in intersection_numbers fail it at exactly the members of F_1
    wrong = _mutant(cr._read_numbers, "3 * u * d_d,", "3 * u * d_d + (e == 1),")
    monkeypatch.setattr(cr, "_read_numbers", wrong)
    monkeypatch.setattr(verify, "_MAX_FAILURES", 1000)
    assert verify._Proofs().vanishes("ring_routes")
    numbers = _results_by_name(1, 1)[NUMBERS]
    assert numbers.cases == bf.grid_member_count(1, 1)
    assert _failing_members(numbers) == {str(p) for p in iter_valid_params(1, 1) if p.e == 1}
    assert all("intersection numbers disagree with closed forms at e=1" in line
               for line in numbers.failures)


def test_a_k3_off_by_one_stops_report_and_hilbpoly_and_fails_verify(monkeypatch, capsys):
    # the closed forms inside intersection_numbers stop every command that
    # reads the numbers, verify among them, where the raise is a failed case
    # of the intersection-number identity
    wrong = _mutant(cr._read_numbers, "3 * u * d_d,", "3 * u * d_d + 1,")
    monkeypatch.setattr(cr, "_read_numbers", wrong)
    for command in ("report", "hilbpoly"):
        assert cli.main([command, "-e", "2", "-b", "7", "-t", "0"]) == 3
        assert capsys.readouterr().out == ""
    assert cli.main(["verify", "--e-max", "1", "--t-max", "1"]) == 3
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL")]
    assert any(line.endswith("intersection numbers match their closed forms in (d, e, b, t)")
               for line in failing)
