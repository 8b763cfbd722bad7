"""Proofs on the symbolic member: Member's own wiring run on variables e, b, t.

symbolic_member (tests/conftest.py) is a Member whose parameters are Poly,
so an identity between one of its values and a polynomial holds for every
member at once, and a fault in member.py fails it.  Poly defines no order:
a comparison of e, b or t anywhere on the ungated chain raises TypeError.
"""

import pytest
from conftest import _mutant, _prod

import fescroll.cli as cli
from fescroll import bundle_family as bf
from fescroll import chow_ring as cr
from fescroll import hilbert_component as hc
from fescroll import scroll_invariants as si
from fescroll.bundle_family import FamilyParams, UniformityEvidence
from fescroll.chow_ring import IntersectionNumbers
from fescroll.errors import ConsistencyError
from fescroll.member import Member, _once
from fescroll.poly import Poly
from fescroll.scroll_invariants import BinomialCubic

E, B, T = (Poly.var(name) for name in "ebt")

# the values that read line-bundle tables: cohomology() branches on values
TABLE_BACKED = {"tables", "n", "h_of_L", "sym2_pieces", "flags", "tangent", "h_of_N"}
ONCE = [name for name, value in vars(Member).items() if isinstance(value, _once)]
UNGATED = [name for name in ONCE if name not in TABLE_BACKED]


def test_poly_defines_no_order():
    with pytest.raises(TypeError):
        E < 0


def test_the_table_backed_values_are_members_values():
    # a renamed value cannot leave the ungated list by keeping an old name here
    assert TABLE_BACKED < set(ONCE)


@pytest.mark.parametrize("name", UNGATED)
def test_every_ungated_value_of_member_runs_on_poly(symbolic_member, name):
    getattr(symbolic_member(E, B, T), name)


def test_the_given_n_is_chi_of_e_minus_one(symbolic_member):
    # bundle_cohomology asserts h^0(E) = chi(E) member by member
    member = symbolic_member(E, B, T)
    assert member.n == bf.sym_chi(member.split, 1) - 1


def _assert_closed_forms(member):
    assert member.d == 8 * E + 5 * B + 7 * T + 40
    assert member.intersection_numbers == IntersectionNumbers(
        L3=member.d,
        KL2=-10 * E - 4 * B - 8 * T - 52,
        K2L=12 * E + 8 * T + 64,
        K3=-16 * E + 8 * B - 8 * T - 80,
        c2L=2 * E + 2 * B + 2 * T + 24,
        Kc2=-24,
        c3=8,
    )
    assert member.uniformity == UniformityEvidence(
        uniform=True, r=3 * E + 5 + T, ell2=B - T - 2 * E - 4, ell3=0, splitting_type=(3, 1)
    )
    assert member.hilbert_poly == BinomialCubic(
        1, 5 * E + 2 * B + 4 * T + 27, 13 * E + 7 * B + 11 * T + 66, 8 * E + 5 * B + 7 * T + 40
    )
    assert member.chi_N == (
        25 * E * E + 20 * E * B + 40 * E * T + 4 * B * B + 16 * B * T + 16 * T * T
        + 272 * E + 116 * B + 220 * T + 758
    )


def test_the_closed_forms_of_every_member(symbolic_member):
    # from the split form to P(m) and chi(N) nothing divides but sym_chi's
    # exact_div by 12, which a Poly does coefficient by coefficient, and
    # nothing compares e, b or t but for equality, so on variables Member
    # gives the closed forms of every member at once, with nothing patched
    _assert_closed_forms(symbolic_member(E, B, T))


def test_the_numbers_read_off_k_x_are_the_pairings_in_z_e_b_t(symbolic_member):
    # intersection_numbers expands the pairing rules once; the ring takes each
    # number as the degree of its full product, as verify proves once per run
    member = symbolic_member(E, B, T)
    ctx, (c1x, c2x, c3x) = member.ctx, member.chern_TX
    k, xi = -c1x, cr.XI
    factors = ((xi, xi, xi), (k, xi, xi), (k, k, xi), (k, k, k), (xi, c2x), (k, c2x), (c3x,))
    assert member.intersection_numbers == tuple(
        cr.degree(_prod(ctx, *product)) for product in factors)


@pytest.mark.parametrize("name, old, new", [
    ("ctx", "self.chern.c2)", "self.chern.c2 + 1)"),  # a layer's own check raises
    ("chi_N", "self.n, self.d", "self.n + 1, self.d"),  # only the closed form sees it
])
def test_a_wiring_mutant_of_member_fails_the_closed_forms(
        monkeypatch, symbolic_member, name, old, new):
    monkeypatch.setattr(Member, name, _once(_mutant(vars(Member)[name].fn, old, new)))
    with pytest.raises((AssertionError, ConsistencyError)):
        _assert_closed_forms(symbolic_member(E, B, T))


def test_ell2_is_b_minus_t_minus_2e_minus_4_for_every_r(symbolic_member):
    # ell is straight-line, so on a variable r this is the identity in
    # Z[e, b, t, r] that is_uniform checks at r3 only; ell3 = 0 at r3 is
    # among the closed forms
    member, r = symbolic_member(E, B, T), Poly.var("r")
    assert bf.ell_invariant(member.chern, E, 2, r) == B - T - 2 * E - 4


@pytest.mark.parametrize("old, new, by_ell", [
    ("(3, intersect", "(4, intersect", (4, 1)),
    ("FIBER) - 3)", "FIBER) - 2)", (3, 2)),
])
def test_a_mutant_splitting_type_fails_against_the_split_form(
        monkeypatch, capsys, symbolic_member, old, new, by_ell):
    # the type that ell decides is checked against (A.f, B.f), so a wrong
    # constant in it makes report exit 3, and fails on the symbolic member
    monkeypatch.setattr(bf, "is_uniform", _mutant(bf.is_uniform, old, new))
    assert cli.main(["report", "-e", "2", "-b", "7", "-t", "0"]) == 3
    assert f"splitting type {by_ell} by ell != (A.f, B.f) = (3, 1)" in capsys.readouterr().err
    with pytest.raises(ConsistencyError, match=r"^splitting type "):
        symbolic_member(E, B, T).uniformity


def test_riemann_roch_rejects_a_symbolic_total_off_its_integer_route(symbolic_member):
    # the multiplied-out Riemann-Roch checks fail on polynomials as on integers
    member = symbolic_member(E, B, T)
    nums = member.intersection_numbers
    with pytest.raises(ConsistencyError, match=r"^Riemann-Roch 12\*p1 = "):
        si.hilbert_polynomial(member.params, member.split, nums._replace(KL2=nums.KL2 + E))
    with pytest.raises(ConsistencyError, match=r"^12\*chi\(N\) != "):
        hc.chi_normal(member.params, member.n, member.d, nums._replace(Kc2=nums.Kc2 + 1))


def test_chi_of_t_x_by_hrr(symbolic_member):
    nums = symbolic_member(E, B, T).intersection_numbers
    assert hc.chi_tangent(nums) == 13 + 4 * (2 * E + 3 + T - B)


def test_the_regime_forms_on_the_symbolic_regime_member(symbolic_member):
    # b = 2e+3+t: chi(N) = n(n+1)+9e+20+6t, the component dimension where
    # the flags hold, and chi(T_X) = 13, which the tangent table must match
    member = symbolic_member(E, 2 * E + 3 + T, T)
    n = member.n
    assert n == 9 * E + 6 * T + 33
    assert member.chi_N == n * (n + 1) + 9 * E + 20 + 6 * T
    assert hc.chi_tangent(member.intersection_numbers) == 13


def _deformation_invariants(member):
    nums = member.intersection_numbers
    return (member.n, member.d, member.chern.c2, *nums, member.hilbert_poly, member.chi_N,
            hc.chi_tangent(nums), member.uniformity.splitting_type)


def test_the_deformation_of_f_e_to_f_e_minus_2_keeps_the_invariants(symbolic_member):
    # F_e deforms to F_{e-2}, C0 going to C0' - f, which takes the member
    # (e, b, t) to (e-2, b-1, t+3): n, d, c2, the intersection numbers, P,
    # chi(N) and chi(T_X) are the same polynomials there; a shift that is
    # no deformation changes them
    invariants = _deformation_invariants(symbolic_member(E, B, T))
    assert _deformation_invariants(symbolic_member(E - 2, B - 1, T + 3)) == invariants
    assert _deformation_invariants(symbolic_member(E - 1, B - 1, T + 3)) != invariants


def _at(x, point):
    """x, a Poly, an int or a tuple of them, at the integer point {"e": e, "b": b, "t": t}."""
    if isinstance(x, tuple):
        return tuple(_at(y, point) for y in x)
    return x.at(point) if isinstance(x, Poly) else x


@pytest.mark.parametrize("e, b, t", [(0, 3, 0), (1, 4, 3), (2, 7, 0), (3, 5, 2), (5, 20, 40)])
def test_the_symbolic_member_at_a_member_is_that_member(symbolic_member, e, b, t):
    symbolic, member = symbolic_member(E, B, T), Member(FamilyParams(e, b, t))
    point = {"e": e, "b": b, "t": t}
    for name in ["n", *UNGATED]:
        assert _at(getattr(symbolic, name), point) == getattr(member, name), name
    nums = symbolic.intersection_numbers
    assert _at(hc.chi_tangent(nums), point) == hc.chi_tangent(member.intersection_numbers)
