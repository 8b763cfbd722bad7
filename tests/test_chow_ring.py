import ast
from pathlib import Path

import pytest
from conftest import _prod

import fescroll
from fescroll.bundle_family import FamilyParams, iter_valid_params
from fescroll.chow_ring import (
    XI,
    ChowClass,
    IntersectionNumbers,
    canonical_class_X,
    chern_TX,
    degree,
    intersection_numbers,
    multiply,
    pullback,
)
from fescroll.errors import ConsistencyError
from fescroll.member import Member
from fescroll.surface_lattice import C0, FIBER, DivisorClass, canonical_class, intersect

PARAMS = FamilyParams(2, 7, 0)
CTX = Member(PARAMS).ctx
ONE, PT_PULLBACK, POINT = ChowClass(z=1), ChowClass(p=1), ChowClass(pt=1)


def test_context_from_params():
    assert CTX.e == 2
    assert CTX.c1 == DivisorClass(4, 19)
    assert CTX.c2 == 29


def test_one_is_identity():
    for cls in (XI, PT_PULLBACK, POINT, ChowClass(1, 2, 3, 4, 5, 6, 7, 8)):
        assert multiply(CTX, ONE, cls) == cls
        assert multiply(CTX, cls, ONE) == cls


def test_xi_squared_reduction():
    # xi^2 = xi*c1' - c2*pt'
    assert multiply(CTX, XI, XI) == ChowClass(xih1=4, xih2=19, p=-29)


def test_xi_cubed_is_scroll_degree():
    assert _prod(CTX, XI, XI, XI) == ChowClass(pt=91)
    assert degree(_prod(CTX, XI, XI, XI)) == 91


def test_pullback_products():
    c0p, fp = pullback(C0), pullback(FIBER)
    assert multiply(CTX, c0p, c0p) == ChowClass(p=-2)
    assert multiply(CTX, c0p, fp) == ChowClass(p=1)
    assert multiply(CTX, fp, fp) == ChowClass()
    assert multiply(CTX, fp, PT_PULLBACK) == ChowClass()
    assert multiply(CTX, XI, PT_PULLBACK) == POINT


def test_degree_rejects_mixed_classes():
    with pytest.raises(ConsistencyError, match="zero-cycle"):
        degree(XI)
    with pytest.raises(ConsistencyError, match="zero-cycle"):
        degree(ChowClass(xih1=1, pt=5))
    assert degree(ChowClass(pt=-3)) == -3
    assert degree(ChowClass()) == 0


def test_canonical_class_spots():
    assert canonical_class_X(CTX) == ChowClass(xi=-2, h1=2, h2=15)
    ctx0 = Member(FamilyParams(0, 3, 0)).ctx
    assert canonical_class_X(ctx0) == ChowClass(xi=-2, h1=2, h2=7)


def test_kl2_spot():
    k = canonical_class_X(CTX)
    assert degree(_prod(CTX, k, XI, XI)) == -100


def test_chern_tx_fixtures():
    c1x, c2x, c3x = chern_TX(CTX)
    assert c1x == -canonical_class_X(CTX)
    assert degree(c3x) == 8
    assert degree(multiply(CTX, canonical_class_X(CTX), c2x)) == -24
    assert degree(multiply(CTX, c2x, XI)) == 42


def _oracle_numbers(ctx):
    # independent route: expand each triple product by hand using only the
    # reduction relations, so every answer is a surface pairing
    e = ctx.e
    kf = canonical_class(e)
    k = kf + ctx.c1  # divisor part of K_X = -2*xi + k'
    c1sq = intersect(e, ctx.c1, ctx.c1)
    d = c1sq - ctx.c2
    kc1 = intersect(e, k, ctx.c1)
    ksq = intersect(e, k, k)
    return IntersectionNumbers(
        L3=d,
        KL2=-2 * d + kc1,
        K2L=4 * d - 4 * kc1 + ksq,
        K3=-8 * d + 12 * kc1 - 6 * ksq,
        c2L=4 - intersect(e, ctx.c1, kf),
        Kc2=-24,
        c3=8,
    )


def test_intersection_numbers_record():
    nums = intersection_numbers(PARAMS, CTX, chern_TX(CTX))
    assert nums == IntersectionNumbers(
        L3=91, KL2=-100, K2L=88, K3=-56, c2L=42, Kc2=-24, c3=8
    )
    assert nums == _oracle_numbers(CTX)


@pytest.mark.parametrize("e,b,t,l3", [(0, 3, 0, 55), (1, 5, 0, 73)])
def test_scroll_degree_spots(e, b, t, l3):
    p = FamilyParams(e, b, t)
    ctx = Member(p).ctx
    assert intersection_numbers(p, ctx, chern_TX(ctx)).L3 == l3


def test_intersection_numbers_grid_against_hand_expansion():
    for p in iter_valid_params(3, 3):
        ctx = Member(p).ctx
        assert intersection_numbers(p, ctx, chern_TX(ctx)) == _oracle_numbers(ctx)


_UPPER_LAYERS = {"bundle_family", "member", "scroll_invariants", "hilbert_component",
                 "verify", "cli"}


@pytest.mark.parametrize("layer", ["surface_lattice", "chow_ring", "poly"])
def test_lower_layers_import_no_member_layer(layer):
    # the surface, the Chow ring and the polynomial type know no member, so a
    # context is built from (e, c1, c2) alone, symbolic or not
    tree = ast.parse(Path(fescroll.__file__).with_name(f"{layer}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)  # from . import x
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert imported & _UPPER_LAYERS == set()


def test_class_arithmetic():
    x = ChowClass(1, 2, 3, 4, 5, 6, 7, 8)
    y = ChowClass(8, 7, 6, 5, 4, 3, 2, 1)
    assert x + y == ChowClass(9, 9, 9, 9, 9, 9, 9, 9)
    assert x - x == ChowClass()
    assert -x == ChowClass(-1, -2, -3, -4, -5, -6, -7, -8)
    assert 2 * x == x * 2 == x + x
    assert 3 * x == ChowClass(3, 6, 9, 12, 15, 18, 21, 24)
    # ChowClass is a tuple: k*x must scale it, not repeat it
    for got in (x + y, x - y, -x, 3 * x, x * 3):
        assert type(got) is ChowClass and len(got) == 8


def test_only_multiply_and_the_reader_read_c1_c0():
    # the pairing rules are transcribed twice, by multiply and _read_numbers,
    # and each route checks the other; any other function that reads c1.C0
    # would be a third transcription, checked by neither
    readers = set()
    for path in Path(fescroll.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "c1_c0"
                   for node in ast.walk(top)):
                readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    readers.discard("chow_ring.ScrollContext")
    assert readers == {"chow_ring.multiply", "chow_ring._read_numbers"}


def test_multiply_commutes_and_associates_spot():
    a = ChowClass(z=1, xi=2, h1=-1, h2=3)
    b = ChowClass(z=2, xi=-3, h1=1, h2=0, xih1=4)
    c = ChowClass(z=-1, xi=1, h2=2, p=5)
    assert multiply(CTX, a, b) == multiply(CTX, b, a)
    left = multiply(CTX, multiply(CTX, a, b), c)
    right = multiply(CTX, a, multiply(CTX, b, c))
    assert left == right
