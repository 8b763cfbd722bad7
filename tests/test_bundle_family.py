import pytest
from hypothesis import given, settings, strategies as st

from fescroll import surface_lattice
from fescroll.bundle_family import (
    FamilyParams,
    build_split,
    chern,
    ell_invariant,
    extension_data,
    invariant_r,
    iter_valid_params,
    sym2_pieces,
    sym_chi,
)
from fescroll.errors import ParameterError
from fescroll.member import Member
from fescroll.surface_lattice import (
    DivisorClass,
    SurfaceTables,
    cohomology,
    h0_lattice_oracle,
    is_ample,
)

D = DivisorClass


# -- parameter validation ----------------------------------------------------


def test_valid_params_accepted():
    p = FamilyParams(2, 7, 0)
    assert (p.e, p.b, p.t) == (2, 7, 0)


@pytest.mark.parametrize(
    "e,b,t,reason",
    [
        (-1, 0, 0, "e_negative"),
        (0, 0, -1, "t_negative"),
        (1, -2, 5, "b_lower"),
        (0, 4, 0, "b_upper"),
        (2, 1, 0, "ampleness"),
    ],
)
def test_rejection_reasons(e, b, t, reason):
    with pytest.raises(ParameterError) as info:
        FamilyParams(e, b, t)
    assert info.value.reason == reason


def test_rejection_messages_cite_bounds():
    with pytest.raises(ParameterError, match=r"b < 2e\+4\+t = 4"):
        FamilyParams(0, 4, 0)
    with pytest.raises(ParameterError, match=r"b > e-1 = 1"):
        FamilyParams(2, 1, 0)


def test_ampleness_inequality_is_ampleness_of_b():
    # b > e-1 is the ampleness of B = C0 + (b+1)*f, and A = 3*C0 + (3e+5+t)*f
    # is ample on every member
    for e in range(7):
        for t in range(7):
            for b in range(-3, 2 * e + 6 + t):
                bundle = build_split(FamilyParams._make((e, b, t)))  # skips validation
                try:
                    FamilyParams(e, b, t)
                except ParameterError:
                    accepted = False
                else:
                    accepted = True
                    assert is_ample(e, bundle.A)
                assert accepted == (b < 2 * e + 4 + t and is_ample(e, bundle.B))


def test_iter_valid_params_grid_size():
    grid = list(iter_valid_params(4, 6))
    assert len(grid) == 315
    assert grid[0] == FamilyParams(0, 0, 0)
    # every b in [e, 2e+3+t] appears, nothing outside
    for p in grid:
        assert p.e <= 4 and p.t <= 6
        assert p.e <= p.b <= 2 * p.e + 3 + p.t


# -- the split model and its Chern data --------------------------------------


def test_build_split_example():
    bundle = build_split(FamilyParams(2, 7, 0))
    assert bundle.A == D(3, 11)
    assert bundle.B == D(1, 8)


def test_chern_example():
    p = FamilyParams(2, 7, 0)
    data = chern(p, build_split(p))
    assert data.c1 == D(4, 19)
    assert data.c2 == 29


def test_chern_closed_form_across_grid():
    for p in iter_valid_params(4, 6):
        data = chern(p, build_split(p))
        assert data.c1 == D(4, p.b + 3 * p.e + 6 + p.t)
        assert data.c2 == 3 * p.b + 8 + p.t


def test_extension_data():
    ext = extension_data(FamilyParams(2, 7, 0))
    assert ext.L == D(1, 7)
    assert ext.M == D(3, 12)
    assert ext.w_len == 2


# -- jumping-line invariants -------------------------------------------------


def _r_by_oracle(params, d1):
    # independent route: the largest fiber twist r such that
    # E(-d1*C0 - r*f) still has a section, with h^0 counted by lattice
    # points rather than pushforward degrees
    bundle = build_split(params)
    span = 3 * params.e + 6 + params.t + abs(params.b) + 4
    best = None
    for r in range(-span, span + 1):
        shift = D(d1, r)
        sections = h0_lattice_oracle(params.e, bundle.A - shift)
        sections += h0_lattice_oracle(params.e, bundle.B - shift)
        if sections > 0:
            best = r
    return best


@pytest.mark.parametrize(
    "e,b,t,expected",
    [(2, 7, 0, 11), (0, 3, 0, 5), (1, 5, 0, 8), (2, 5, 3, 14), (4, 10, 2, 19)],
)
def test_invariant_r_spots(e, b, t, expected):
    p = FamilyParams(e, b, t)
    for d1 in (1, 2, 3):
        assert invariant_r(build_split(p), d1) == expected
    assert expected == 3 * e + 5 + t


def test_invariant_r_matches_section_threshold_oracle():
    for p in iter_valid_params(2, 2):
        for d1 in (1, 2, 3):
            assert invariant_r(build_split(p), d1) == _r_by_oracle(p, d1)


def test_invariant_r_rejects_bad_degree():
    p = FamilyParams(1, 3, 0)
    with pytest.raises(ValueError):
        invariant_r(build_split(p), 0)
    with pytest.raises(ValueError):
        invariant_r(build_split(p), 4)


@pytest.mark.parametrize(
    "e,b,t,d1,r,expected",
    [
        (2, 7, 0, 2, 11, -1),
        (2, 7, 0, 3, 11, 0),
        (0, 3, 0, 2, 5, -1),
        (0, 3, 0, 3, 5, 0),
        (1, 5, 0, 2, 8, -1),
    ],
)
def test_ell_invariant_spots(e, b, t, d1, r, expected):
    p = FamilyParams(e, b, t)
    assert ell_invariant(chern(p, build_split(p)), e, d1, r) == expected


def test_is_uniform_evidence():
    ev = Member(FamilyParams(2, 5, 3)).uniformity
    assert ev.uniform
    assert ev.r == 14
    assert ev.ell2 == -6
    assert ev.ell3 == 0
    assert ev.splitting_type == (3, 1)


# -- cohomology of the bundle and its symmetric square -----------------------


def test_bundle_cohomology_spots():
    p = FamilyParams(2, 7, 0)
    assert Member(p).tables[2].as_tuple() == (52, 0, 0)
    assert cohomology(p.e, D(3, 11)).h0 == 36
    assert cohomology(p.e, D(1, 8)).h0 == 16

    q = FamilyParams(0, 3, 0)
    assert Member(q).tables[2].as_tuple() == (34, 0, 0)


def test_bundle_h0_closed_form():
    for p in iter_valid_params(4, 6):
        table = Member(p).tables[2]
        assert table.h0 == 5 * p.e + 2 * p.b + 4 * p.t + 28
        assert table.h1 == table.h2 == 0


def test_sym_chi_small_cases():
    p = FamilyParams(2, 7, 0)
    bundle = build_split(p)
    assert sym_chi(bundle, 0) == 1
    assert sym_chi(bundle, 1) == 52
    with pytest.raises(ValueError):
        sym_chi(bundle, -1)


def _sym_chi_by_summands(bundle, m):
    """chi(Sym^m E) term by term: Riemann-Roch on each of i*A + (m-i)*B."""
    e = bundle.e
    da, dc = bundle.A.a - bundle.B.a, bundle.A.c - bundle.B.c
    a0, c0 = m * bundle.B.a, m * bundle.B.c
    return sum(surface_lattice._chi(e, a0 + i * da, c0 + i * dc) for i in range(m + 1))


def test_sym_chi_matches_its_summands_on_the_grid():
    for p in iter_valid_params(8, 12):
        bundle = build_split(p)
        for m in range(41):
            assert sym_chi(bundle, m) == _sym_chi_by_summands(bundle, m)


@st.composite
def wide_members(draw):
    e = draw(st.integers(0, 60))
    t = draw(st.integers(0, 3000))
    return FamilyParams(e, draw(st.integers(e, 2 * e + 3 + t)), t)


@settings(deadline=None)
@given(wide_members(), st.integers(0, 200))
def test_sym_chi_matches_its_summands_on_wide_members(params, m):
    bundle = build_split(params)
    assert sym_chi(bundle, m) == _sym_chi_by_summands(bundle, m)


def test_sym_chi_makes_no_riemann_roch_call(monkeypatch):
    calls = []
    real = surface_lattice._chi
    monkeypatch.setattr(surface_lattice, "_chi", lambda *args: calls.append(args) or real(*args))
    bundle = build_split(FamilyParams(2, 7, 0))
    assert sym_chi(bundle, 10) == _sym_chi_by_summands(bundle, 10)
    assert len(calls) == 11  # the counter sees each of the oracle's summands
    calls.clear()
    assert sym_chi(bundle, 10**6) > 0
    assert calls == []



def test_sym2_twisted_cohomology_spots():
    for e, b, t in [(2, 7, 0), (0, 3, 0), (1, 5, 0)]:
        bundle = build_split(FamilyParams(e, b, t))
        tab_amb, tab_trivial, tab_bma = sym2_pieces(bundle, SurfaceTables(e))
        assert (tab_amb + tab_trivial + tab_bma).as_tuple() == (7, 0, 0)


# -- vanishing windows, both directions --------------------------------------


def test_window_h1_a_minus_b():
    for p in iter_valid_params(4, 6):
        bundle = build_split(p)
        h1 = cohomology(p.e, bundle.A - bundle.B).h1
        assert (h1 == 0) == (p.b < 6 + p.t + p.e)


def test_window_h2_b_minus_a():
    for p in iter_valid_params(4, 6):
        bundle = build_split(p)
        h2 = cohomology(p.e, bundle.B - bundle.A).h2
        assert (h2 == 0) == (p.b >= 2 * p.e + 3 + p.t)


def test_window_h1_b_minus_a():
    for p in iter_valid_params(4, 6):
        bundle = build_split(p)
        h1 = cohomology(p.e, bundle.B - bundle.A).h1
        assert (h1 == 0) == (p.b <= 2 * p.e + 3 + p.t)
