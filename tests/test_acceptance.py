"""Acceptance gate: one test per shipping criterion, one printed line each.

Every test sweeps the full validated grid (e <= 4, t <= 6, all valid b)
or the theorem regime inside it, and prints a single
``ACCEPTANCE C<k> <label>: PASS|FAIL`` line directly to the terminal.
"""

from contextlib import contextmanager

import pytest

from fescroll.bundle_family import (
    FamilyParams,
    build_split,
    ell_invariant,
    invariant_r,
    iter_valid_params,
    sym_chi,
)
from fescroll.chow_ring import XI, IntersectionNumbers, degree, prod
from fescroll.member import Member
from fescroll.surface_lattice import intersect
from fescroll.verify import run_all

GRID = list(iter_valid_params(4, 6))
REGIME = [
    FamilyParams(e, 2 * e + 3 + t, t) for e in (0, 1, 2) for t in range(7)
]


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(tag):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}", flush=True)

    return run


def test_c01_uniform_splitting_type(criterion):
    with criterion("C1 uniform splitting type (3, 1): r = 3e+5+t, "
                   "ell2 = b-t-2e-4 < 0, ell3 = 0 on the whole grid"):
        assert len(GRID) == 315
        for p in GRID:
            r = invariant_r(build_split(p), 3)
            assert r == 3 * p.e + 5 + p.t
            m = Member(p)
            ev = m.uniformity
            assert ev.uniform and ev.r == r
            assert ev.ell2 == p.b - p.t - 2 * p.e - 4 < 0
            assert ev.ell3 == ell_invariant(m.chern, p.e, 3, r) == 0
            assert ev.splitting_type == (3, 1)


def test_c02_bundle_cohomology(criterion):
    with criterion("C2 cohomology of E: h = (5e+2b+4t+28, 0, 0), "
                   "h0(A) = 6e+4t+24, h0(B) = 2b+4-e"):
        for p in GRID:
            table = Member(p).tables[2]  # asserts the summand closed forms
            assert table.as_tuple() == (5 * p.e + 2 * p.b + 4 * p.t + 28, 0, 0)
        assert Member(FamilyParams(2, 7, 0)).tables[2].h0 == 52


def test_c03_embedding_dimension_and_degree(criterion):
    with criterion("C3 n = h0(E)-1 = 5e+2b+4t+27 and "
                   "d = c1^2-c2 = deg xi^3 = 8e+5b+7t+40"):
        for p in GRID:
            m = Member(p)
            n = m.n
            d = m.d  # internally: chern route, chow route, closed form
            assert n == 5 * p.e + 2 * p.b + 4 * p.t + 27
            assert d == 8 * p.e + 5 * p.b + 7 * p.t + 40
            assert d - 3 * p.e - 3 * p.b - 3 * p.t - 12 == n + 1
            cd = m.chern
            assert d == intersect(p.e, cd.c1, cd.c1) - cd.c2
            ctx = m.ctx
            assert d == degree(prod(ctx, XI, XI, XI))


def test_c04_intersection_numbers(criterion):
    with criterion("C4 intersection numbers of (X, L): closed forms, "
                   "-K.c2 = 24 and c3 = 8 everywhere"):
        for p in GRID:
            nums = Member(p).intersection_numbers
            assert nums.Kc2 == -24 and nums.c3 == 8
        spot = Member(FamilyParams(2, 7, 0)).intersection_numbers
        assert spot == IntersectionNumbers(
            L3=91, KL2=-100, K2L=88, K3=-56, c2L=42, Kc2=-24, c3=8
        )


def test_c05_hilbert_polynomial(criterion):
    with criterion("C5 Hilbert polynomial: P(m) = chi(Sym^m E) on [0, 8], "
                   "P(0) = 1, P(1) = n+1"):
        for p in GRID:
            member = Member(p)
            poly = member.hilbert_poly  # runs the sym_chi cross-check itself
            bun = build_split(p)
            for m in range(0, 9):
                assert poly.value_at(m) == sym_chi(bun, m)
            assert poly.value_at(0) == 1
            assert poly.value_at(1) == member.n + 1
        assert Member(FamilyParams(2, 7, 0)).hilbert_poly.to_pairs() == [
            [1, 1], [65, 6], [25, 1], [91, 6],
        ]


def test_c06_component_dimension(criterion):
    with criterion("C6 component dimension: dim = chi(N) = n(n+1)+9e+20+6t "
                   "with n = 9e+33+6t on the regime"):
        for p in REGIME:
            member = Member(p)
            h_of_n, n = member.h_of_N, member.n
            assert n == 9 * p.e + 33 + 6 * p.t
            assert h_of_n == (member.chi_N, 0, 0, 0)
            assert h_of_n[0] == n * (n + 1) + 9 * p.e + 20 + 6 * p.t
        assert Member(FamilyParams(2, 7, 0)).h_of_N[0] == 2690
        assert Member(FamilyParams(0, 3, 0)).h_of_N[0] == 1142
        assert Member(FamilyParams(1, 5, 0)).h_of_N[0] == 1835


def test_c07_tangent_cohomology(criterion):
    with criterion("C7 tangent cohomology: chi(T_X) = 13; "
                   "(h0, h1) = (13, 0) at e = 0, (e+12, e-1) for e > 0"):
        for p in REGIME:
            table = Member(p).tangent
            assert table.chi == 13
            expected = (13, 0) if p.e == 0 else (p.e + 12, p.e - 1)
            assert (table.h0, table.h1) == expected
            assert (table.h2, table.h3) == (0, 0)


def test_c08_euler_sequence_identity(criterion):
    with criterion("C8 Euler-sequence identity: "
                   "h0(N) = (n+1)^2 - 1 - h0(T_X) + h1(T_X)"):
        for p in REGIME:
            member = Member(p)
            tangent = member.tangent
            euler = (member.n + 1) ** 2 - 1 - tangent.h0 + tangent.h1
            assert member.h_of_N[0] == euler


def test_c09_scroll_locus_codimension(criterion):
    with criterion("C9 scroll-locus codimension: 0 at e = 0, e-1 for e > 0"):
        for p in REGIME:
            expected = 0 if p.e == 0 else p.e - 1
            assert Member(p).tangent.h1 == expected
        assert Member(FamilyParams(2, 7, 0)).tangent.h1 == 1


def test_c10_verification_battery(criterion):
    with criterion("C10 full identity battery green on the (4, 6) grid"):
        results = run_all(4, 6)
        assert len(results) == 28
        for result in results:
            assert result.ok, f"{result.name}: {result.failures[:2]}"
            assert result.cases > 0
