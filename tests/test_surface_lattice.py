import pytest

from fescroll.errors import ParameterError
from fescroll.surface_lattice import (
    C0,
    FIBER,
    ZERO,
    CohomologyTable,
    DivisorClass,
    canonical_class,
    cohomology,
    h0_lattice_oracle,
    intersect,
    is_ample,
    is_effective,
    pushforward_degrees,
)

D = DivisorClass
F0, F1, F2 = 0, 1, 2  # the surface F_e is its integer e


def _h_p1(deg):
    # cohomology of O(deg) on the projective line
    return max(0, deg + 1), max(0, -deg - 1)


def kunneth_table(a, c):
    # independent oracle for F_0 = P^1 x P^1
    h0a, h1a = _h_p1(a)
    h0c, h1c = _h_p1(c)
    return (h0a * h0c, h0a * h1c + h1a * h0c, h1a * h1c)


def test_cohomology_rejects_negative_e():
    with pytest.raises(ParameterError) as info:
        cohomology(-1, ZERO)
    assert info.value.reason == "e_negative"


def test_intersection_form_on_generators():
    for e in range(5):
        assert intersect(e, C0, C0) == -e
        assert intersect(e, FIBER, FIBER) == 0
        assert intersect(e, C0, FIBER) == 1


def test_intersect_example():
    assert intersect(F2, D(3, 11), D(1, 8)) == 29


def test_canonical_class():
    assert canonical_class(F0) == D(-2, -2)
    assert canonical_class(F1) == D(-2, -3)
    assert canonical_class(F2) == D(-2, -4)


def test_adjunction_pins_canonical_class():
    # K is the unique class with K.C0 + C0^2 = -2 and K.f + f^2 = -2
    for e in range(7):
        k = canonical_class(e)
        assert intersect(e, k, C0) + intersect(e, C0, C0) == -2
        assert intersect(e, k, FIBER) == -2


def test_effective_examples():
    assert is_effective(F2, D(1, 0))
    assert is_effective(F2, ZERO)
    assert not is_effective(F2, D(-1, 5))
    assert not is_effective(F0, D(2, -1))


def test_effective_matches_h0():
    for e in range(4):
        for a in range(-8, 9):
            for c in range(-8, 9):
                d = D(a, c)
                h0 = cohomology(e, d).h0
                if d == ZERO:
                    assert h0 == 1 and is_effective(e, d)
                else:
                    assert is_effective(e, d) == (h0 > 0)


def test_ample_examples():
    assert is_ample(F2, D(1, 8))
    assert not is_ample(F2, D(1, 2))  # nef but not ample: c = a*e
    assert is_ample(F0, D(1, 1))
    assert not is_ample(F0, D(1, 0))
    assert not is_ample(F2, D(0, 5))


def test_pushforward_degrees():
    assert pushforward_degrees(F2, D(3, 11)) == [11, 9, 7, 5]
    assert pushforward_degrees(F1, D(1, 2)) == [2, 1]
    for e in range(4):
        assert pushforward_degrees(e, D(0, 7)) == [7]
    with pytest.raises(ValueError):
        pushforward_degrees(F2, D(-1, 3))


def test_cohomology_examples():
    assert cohomology(F2, D(3, 11)).as_tuple() == (36, 0, 0)
    for e in range(5):
        assert cohomology(e, ZERO).as_tuple() == (1, 0, 0)
    assert cohomology(F0, D(-2, 0)).as_tuple() == (0, 1, 0)


def test_cohomology_against_kunneth_on_f0():
    for a in range(-8, 9):
        for c in range(-8, 9):
            assert cohomology(F0, D(a, c)).as_tuple() == kunneth_table(a, c)


def test_a_equals_minus_one_stratum_vanishes():
    for e in range(5):
        for c in range(-10, 11):
            table = cohomology(e, D(-1, c))
            assert table.as_tuple() == (0, 0, 0)
            assert table.chi == 0


def test_canonical_class_cohomology():
    # h^2(K) = h^0(O) = 1 by duality
    for e in range(5):
        assert cohomology(e, canonical_class(e)).as_tuple() == (0, 0, 1)


@pytest.mark.parametrize("corrupted", ["_h0_fiberwise", "_h1_fiberwise"])
def test_cohomology_raises_when_h1_routes_disagree(monkeypatch, corrupted):
    # h^1 by chi-subtraction uses h^0, the direct series does not: an
    # off-by-one in either closed form must surface as a ConsistencyError
    from fescroll import surface_lattice
    from fescroll.errors import ConsistencyError

    original = getattr(surface_lattice, corrupted)
    monkeypatch.setattr(surface_lattice, corrupted, lambda e, a, c: original(e, a, c) + 1)
    with pytest.raises(ConsistencyError, match="h1 routes disagree"):
        cohomology(F2, D(3, 11))


def test_lattice_oracle_examples():
    assert h0_lattice_oracle(F1, D(1, 2)) == 5
    assert h0_lattice_oracle(F2, D(2, 3)) == 6
    assert h0_lattice_oracle(F2, D(-1, 100)) == 0


def test_lattice_oracle_matches_cohomology():
    for e in range(5):
        for a in range(-12, 13):
            for c in range(-12, 13):
                assert h0_lattice_oracle(e, D(a, c)) == cohomology(e, D(a, c)).h0


def test_serre_duality_involution():
    for e in range(5):
        k = canonical_class(e)
        for a in range(-12, 13):
            for c in range(-12, 13):
                tab = cohomology(e, D(a, c))
                dual = cohomology(e, k - D(a, c))
                assert (tab.h0, tab.h1, tab.h2) == (dual.h2, dual.h1, dual.h0)


def test_riemann_roch_parity_and_chi():
    for e in range(5):
        k = canonical_class(e)
        for a in range(-12, 13):
            for c in range(-12, 13):
                d = D(a, c)
                pairing = intersect(e, d, d - k)
                assert pairing % 2 == 0
                assert cohomology(e, d).chi == 1 + pairing // 2


def test_table_invariant_rejects_mismatched_chi():
    from fescroll.errors import ConsistencyError

    with pytest.raises(ConsistencyError):
        CohomologyTable(1, 0, 0, 2)
    with pytest.raises(ConsistencyError):
        CohomologyTable(-1, 0, 0, -1)


def test_divisor_arithmetic():
    assert D(1, 2) + D(3, -1) == D(4, 1)
    assert D(1, 2) - D(3, -1) == D(-2, 3)
    assert -D(1, 2) == D(-1, -2)
    assert 3 * D(1, 2) == D(3, 6) == D(1, 2) * 3
