import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from conftest import _prod

from fescroll import bundle_family as bf
from fescroll import hilbert_component
from fescroll.bundle_family import FamilyParams, iter_valid_params
from fescroll.chow_ring import XI, ChowClass, degree, multiply
from fescroll.errors import ConsistencyError, HypothesesError, exact_div
from fescroll.hilbert_component import (
    HypothesisFlags,
    TangentCohomology,
    chi_normal,
    component_dimension,
)
from fescroll.member import Member
from fescroll.surface_lattice import CohomologyTable

ONE = ChowClass(z=1)


def flags_tuple(p):
    f = Member(p).flags
    return (f.paper_regime, f.v1, f.v2, f.v3)


@pytest.mark.parametrize(
    "e,b,t,expected",
    [
        (2, 7, 0, (True, True, True, True)),
        (0, 3, 0, (True, True, True, True)),
        (1, 5, 0, (True, True, True, True)),
        (2, 6, 0, (False, True, False, True)),
        (3, 9, 0, (False, False, True, True)),
        (0, 2, 0, (False, True, False, True)),
    ],
)
def test_check_hypotheses_spots(e, b, t, expected):
    assert flags_tuple(FamilyParams(e, b, t)) == expected


def test_flags_helpers():
    flags = HypothesisFlags(False, True, False, True)
    assert not flags.all_hold()
    assert flags.failing() == ["paper_regime", "v2"]
    assert HypothesisFlags(True, True, True, True).all_hold()


def test_regime_implies_all_vanishings():
    for e in (0, 1, 2):
        for t in range(0, 7):
            p = FamilyParams(e, 2 * e + 3 + t, t)
            assert Member(p).flags.all_hold()


def test_check_hypotheses_rejects_a_nonzero_h1_of_b_minus_a():
    # v3 holds on every member, so an h^1(B - A) read as 1 is a fault; the
    # regime flag must equal v1 and v2 and v3, which tests/test_verify.py
    # shows with a wrong paper_regime
    member = Member(FamilyParams(1, 3, 0))
    tab_amb, _trivial, tab_bma = member.sym2_pieces
    with pytest.raises(ConsistencyError) as exc:
        hilbert_component.check_hypotheses(member.params, tab_amb, tab_bma._replace(h1=1))
    assert str(exc.value) == (
        "h1(B-A) = 0 must hold on every member; violated at FamilyParams(e=1, b=3, t=0)")


def test_paper_regime_holds_exactly_when_every_flag_holds():
    # the shared CSV row writes flags.paper_regime in the paper_regime column,
    # which report --format csv used to write as flags.all_hold()
    grid = list(iter_valid_params(10, 15))
    assert len(grid) == 2904
    for p in grid:
        flags = Member(p).flags
        assert flags.paper_regime == flags.all_hold(), p


@pytest.mark.parametrize(
    "e,b,t,chin", [(2, 7, 0, 2690), (0, 3, 0, 1142), (1, 5, 0, 1835), (2, 6, 0, 2482)]
)
def test_chi_normal_spots(e, b, t, chin):
    assert Member(FamilyParams(e, b, t)).chi_N == chin


def test_chi_normal_closed_form_everywhere():
    # chi(N) needs no vanishing hypotheses; check the closed form off-regime too
    for p in iter_valid_params(3, 2):
        n = 5 * p.e + 2 * p.b + 4 * p.t + 27
        d = 8 * p.e + 5 * p.b + 7 * p.t + 40
        want = (d - 3 * p.e - 3 * p.b - 3 * p.t - 12) * n
        want += 122 + 21 * p.t + 21 * p.e + 21 * p.b - 3 * d
        assert Member(p).chi_N == want


def test_chi_normal_rejects_a_non_integral_total():
    # one more on K.c2 moves 12*chi(N) by -11
    m = Member(FamilyParams(2, 7, 0))
    nums = m.intersection_numbers
    bumped = nums._replace(Kc2=nums.Kc2 + 1)
    assert chi_normal(m.params, m.n, m.d, nums) == 2690
    with pytest.raises(ConsistencyError) as exc:
        chi_normal(m.params, m.n, m.d, bumped)
    assert str(exc.value) == (
        "12*chi(N) != 12*((d-3e-3b-3t-12)*n + 122+21t+21e+21b-3d) at "
        "FamilyParams(e=2, b=7, t=0): HRR gives 32269, closed form 32280"
    )


def test_exact_div():
    assert exact_div(-12, 4, "x") == -3
    with pytest.raises(ConsistencyError, match=r"^x not an integer: 13/4$"):
        exact_div(13, 4, "x")


def test_component_dimension_checks_the_regime_form():
    m = Member(FamilyParams(2, 7, 0))
    with pytest.raises(ConsistencyError, match=r"chi\(N\) != n\(n\+1\)\+9e\+20\+6t"):
        component_dimension(m.params, m.n, m.chi_N + 1, m.tangent)


def test_component_dimension_checks_the_euler_sequence():
    m = Member(FamilyParams(2, 7, 0))
    assert component_dimension(m.params, m.n, m.chi_N, m.tangent) == (2690, 0, 0, 0)
    with pytest.raises(ConsistencyError, match=r"Euler-sequence value 2689"):
        component_dimension(m.params, m.n, m.chi_N, TangentCohomology(15, 1, 0, 0, 14))


def test_regime_dimension_formula():
    for e in (0, 1, 2):
        for t in range(0, 7):
            p = FamilyParams(e, 2 * e + 3 + t, t)
            n = 9 * e + 33 + 6 * t
            assert Member(p).chi_N == n * (n + 1) + 9 * e + 20 + 6 * t


def _chi_normal_by_chow_classes(member):
    """chi(N) by HRR over Chern classes of N built in the Chow ring.

    n_k = C(n+1, k) L^k - c1.n_(k-1) - c2.n_(k-2) - c3.n_(k-3) unwinds
    c(N) c(T_X) = (1 + L)^(n+1); td(X) = 1 + c1/2 + (c1^2 + c2)/12 + c1.c2/24.
    """
    ctx, n = member.chern, member.n
    c = (ONE, *member.chern_TX)
    ns, power = [ONE], ONE
    for k in (1, 2, 3):
        power = multiply(ctx, power, XI)
        nk = comb(n + 1, k) * power
        for j in range(1, k + 1):
            nk = nk - multiply(ctx, c[j], ns[k - j])
        ns.append(nk)
    _, n1, n2, n3 = ns
    _, c1, c2, _ = c
    ch2 = _prod(ctx, n1, n1) - 2 * n2  # twice ch_2(N)
    ch3 = degree(_prod(ctx, n1, n1, n1)) - 3 * degree(_prod(ctx, n1, n2)) + 3 * degree(n3)
    return (Fraction(ch3, 6)
            + Fraction(degree(_prod(ctx, c1, ch2)), 4)
            + Fraction(degree(_prod(ctx, _prod(ctx, c1, c1) + c2, n1)), 12)
            + Fraction((n - 3) * degree(_prod(ctx, c1, c2)), 24))


def test_chi_normal_matches_the_chow_class_oracle():
    # HRR over Chow classes against HRR over the seven intersection numbers
    grid = list(iter_valid_params(4, 6))
    assert len(grid) == 315
    for p in grid:
        m = Member(p)
        assert _chi_normal_by_chow_classes(m) == m.chi_N, p


def test_hilbert_component_reads_only_the_intersection_numbers():
    # Chow-class algebra stays behind chow_ring: hilbert_component may bind
    # nothing of it except the IntersectionNumbers type
    tree = ast.parse(Path(hilbert_component.__file__).read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("chow_ring"):
                bound += [alias.name for alias in node.names]
            elif any(alias.name == "chow_ring" for alias in node.names):
                bound.append("chow_ring")
        elif isinstance(node, ast.Import):
            bound += [a.name for a in node.names if a.name.endswith("chow_ring")]
    assert bound == ["IntersectionNumbers"]


@pytest.mark.parametrize(
    "e,b,t,table",
    [(2, 7, 0, (14, 1, 0, 0)), (0, 3, 0, (13, 0, 0, 0)), (1, 5, 0, (13, 0, 0, 0))],
)
def test_tangent_cohomology_spots(e, b, t, table):
    got = Member(FamilyParams(e, b, t)).tangent
    assert got.as_tuple() == table
    assert got.chi == 13


def test_tangent_rejects_off_regime():
    with pytest.raises(HypothesesError) as info:
        Member(FamilyParams(2, 6, 0)).tangent
    assert "paper_regime" in str(info.value) and "v2" in str(info.value)
    with pytest.raises(HypothesesError):
        Member(FamilyParams(3, 9, 0)).tangent


def test_tangent_checks_its_table_against_chi_by_hrr(monkeypatch):
    # one more section of O raises h^0(T_X) to 15, off chi(T_X) = 13 by HRR
    real = bf.sym2_pieces

    def two_sections_of_o(bundle, tables):
        tab_amb, _trivial, tab_bma = real(bundle, tables)
        return tab_amb, CohomologyTable(2, 0, 0, 2), tab_bma

    monkeypatch.setattr(bf, "sym2_pieces", two_sections_of_o)
    member = Member(FamilyParams(2, 7, 0))
    assert hilbert_component.chi_tangent(member.intersection_numbers) == 13
    with pytest.raises(ConsistencyError) as exc:
        member.tangent
    assert str(exc.value) == (
        "chi != h0 - h1 + h2 - h3: TangentCohomology(h0=15, h1=1, h2=0, h3=0, chi=13)")


def test_tangent_table_invariant():
    with pytest.raises(ConsistencyError):
        TangentCohomology(2, 0, 0, 0, 1)
    table = TangentCohomology(14, 1, 0, 0, 13)
    assert table.as_tuple() == (14, 1, 0, 0)


@pytest.mark.parametrize("e,b,t,codim", [(2, 7, 0, 1), (0, 3, 0, 0), (1, 5, 0, 0)])
def test_scroll_locus_codim(e, b, t, codim):
    # the codimension of the scroll locus is h^1(T_X)
    p = FamilyParams(e, b, t)
    assert Member(p).tangent.h1 == codim


def test_component_dimension_report():
    member = Member(FamilyParams(2, 7, 0))
    assert member.h_of_N == (member.chi_N, 0, 0, 0) == (2690, 0, 0, 0)
    assert member.tangent == (14, 1, 0, 0, 13)


def test_component_dimension_euler_sequence_identity():
    # second route: h^0(N) = (n+1)^2 - 1 - h^0(T_X) + h^1(T_X)
    for e, t in [(0, 0), (1, 0), (2, 0), (0, 3), (2, 5)]:
        p = FamilyParams(e, 2 * e + 3 + t, t)
        member = Member(p)
        euler = (member.n + 1) ** 2 - 1 - member.tangent.h0 + member.tangent.h1
        assert member.h_of_N[0] == euler


def test_component_dimension_gated():
    # tangent_cohomology is the one gate, and h(N) reads the tangent table
    with pytest.raises(HypothesesError, match="paper_regime, v2"):
        Member(FamilyParams(2, 6, 0)).h_of_N
    with pytest.raises(HypothesesError):
        Member(FamilyParams(3, 9, 0)).h_of_N
