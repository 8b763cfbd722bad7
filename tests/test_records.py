"""The engine's value types: their reprs and their validating constructors.

Failure messages and the verify fault goldens print these reprs, so each
is pinned here field for field.
"""

import pytest

from fescroll.bundle_family import (
    ExtensionData,
    FamilyParams,
    SplitBundle,
    UniformityEvidence,
    build_split,
    extension_data,
    iter_valid_params,
)
from fescroll.chow_ring import ScrollContext
from fescroll.errors import ConsistencyError, ParameterError
from fescroll.hilbert_component import HypothesisFlags, TangentCohomology
from fescroll.member import Member
from fescroll.surface_lattice import ZERO, CohomologyTable, DivisorClass, cohomology

M = Member(FamilyParams(2, 7, 0))
PARAMS = "FamilyParams(e=2, b=7, t=0)"
FLAGS = "HypothesisFlags(paper_regime=True, v1=True, v2=True, v3=True)"

REPRS = [
    (DivisorClass(4, 19), "DivisorClass(a=4, c=19)"),
    (M.tables[2], "CohomologyTable(h0=52, h1=0, h2=0, chi=52)"),
    (M.params, PARAMS),
    (build_split(M.params),
     "SplitBundle(A=DivisorClass(a=3, c=11), B=DivisorClass(a=1, c=8))"),
    (extension_data(M.params),
     "ExtensionData(L=DivisorClass(a=1, c=7), M=DivisorClass(a=3, c=12), w_len=2)"),
    (M.uniformity,
     "UniformityEvidence(uniform=True, r=11, ell2=-1, ell3=0, splitting_type=(3, 1))"),
    (M.chern, "ScrollContext(e=2, c1=DivisorClass(a=4, c=19), c2=29)"),
    (M.intersection_numbers,
     "IntersectionNumbers(L3=91, KL2=-100, K2L=88, K3=-56, c2L=42, Kc2=-24, c3=8)"),
    (M.flags, FLAGS),
    (M.tangent, "TangentCohomology(h0=14, h1=1, h2=0, h3=0, chi=13)"),
    (M.hilbert_poly, "BinomialCubic(p0=1, p1=51, p2=141, p3=91)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=lambda v: type(v).__name__)
def test_repr_lists_the_constructor_fields(value, text):
    assert repr(value) == str(value) == text


def test_scroll_context_is_the_plain_e_c1_c2_record():
    assert ScrollContext._fields == ("e", "c1", "c2")
    assert not {"__new__", "__repr__"} & vars(ScrollContext).keys()
    # the Chern data bundle_family.chern returns are the ring's context, the
    # one record of them a member keeps
    assert type(M.chern) is ScrollContext
    assert not hasattr(Member, "ctx")


def test_a_members_records_are_what_their_constructors_build():
    # the layers build these with tuple.__new__; each must still have exactly
    # its record's type and equal the record the validating constructor makes
    def same(value, record):
        return type(value) is record and value == record(*value)

    for params in iter_valid_params(4, 6):
        member = Member(params)
        split, ctx, ext = member.split, member.chern, extension_data(params)
        assert same(split, SplitBundle) and same(ext, ExtensionData)
        assert all(same(cls, DivisorClass) for cls in (*split, *ext[:2], ctx.c1))
        assert same(ctx, ScrollContext)
        assert same(member.uniformity, UniformityEvidence)
        assert same(member.flags, HypothesisFlags)
        assert all(same(table, CohomologyTable)
                   for table in (*member.tables, *member.sym2_pieces))


@pytest.mark.parametrize("build, reason, message", [
    (lambda: cohomology(-1, ZERO), "e_negative", "require e >= 0, got e=-1"),
    (lambda: FamilyParams(-1, 0, 0), "e_negative", "require e >= 0, got e=-1"),
    (lambda: FamilyParams(0, 0, -1), "t_negative", "require t >= 0, got t=-1"),
    (lambda: FamilyParams(0, -2, 0), "b_lower", "require b > -2, got b=-2"),
    (lambda: FamilyParams(0, 4, 0), "b_upper", "require b < 2e+4+t = 4, got b=4"),
    (lambda: FamilyParams(3, 1, 0), "ampleness", "ampleness forces b > e-1 = 2, got b=1"),
])
def test_parameter_validation(build, reason, message):
    with pytest.raises(ParameterError) as exc:
        build()
    assert exc.value.reason == reason
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: CohomologyTable(-1, 0, 0, -1),
     "negative cohomology dimension: CohomologyTable(h0=-1, h1=0, h2=0, chi=-1)"),
    (lambda: CohomologyTable(1, 0, 0, 2),
     "chi != h0 - h1 + h2: CohomologyTable(h0=1, h1=0, h2=0, chi=2)"),
    (lambda: TangentCohomology(2, 0, 0, 0, 1),
     "chi != h0 - h1 + h2 - h3: TangentCohomology(h0=2, h1=0, h2=0, h3=0, chi=1)"),
])
def test_consistency_validation(build, message):
    with pytest.raises(ConsistencyError) as exc:
        build()
    assert str(exc.value) == message
