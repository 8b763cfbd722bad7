"""Dimension of the Hilbert-scheme component through the embedded scroll.

Everything proved here is conditional on cohomology vanishings that the
engine computes rather than assumes:

    v1: h^1(A - B) = 0        (window b < 6+t+e)
    v2: h^2(B - A) = 0        (window b >= 2e+3+t)
    v3: h^1(B - A) = 0        (holds on every member)

together with the literal regime flag e <= 2 and b = 2e+3+t, which holds
exactly when all three do.  The Euler
characteristic chi(N) of the normal bundle is Hirzebruch-Riemann-Roch over
the member's seven intersection numbers, so no Chow class is built here;
the route through the Chern classes of N in the Chow ring is a test
oracle.  chi(N) is unconditional (Riemann-Roch needs no vanishing) and is
exposed for every valid triple.  tangent_cohomology() is the one gate: off
the regime it raises HypothesesError listing the failing flags, and
component_dimension() reads its h^i(T_X), so h^i(N), whose h^0 is the
component dimension, is gated too: an unproved number can never appear
in a proved field.
"""

from __future__ import annotations

from collections import namedtuple

from .bundle_family import FamilyParams
from .chow_ring import IntersectionNumbers
from .errors import ConsistencyError, HypothesesError
from .surface_lattice import CohomologyTable, canonical_class, intersect


class HypothesisFlags(namedtuple("HypothesisFlags", "paper_regime v1 v2 v3")):
    __slots__ = ()

    def all_hold(self) -> bool:
        return all(self)

    def failing(self) -> list[str]:
        return [name for name, value in zip(self._fields, self) if not value]


class TangentCohomology(namedtuple("TangentCohomology", "h0 h1 h2 h3 chi")):
    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int, h3: int, chi: int) -> TangentCohomology:
        self = tuple.__new__(cls, (h0, h1, h2, h3, chi))
        if chi != h0 - h1 + h2 - h3:
            raise ConsistencyError(f"chi != h0 - h1 + h2 - h3: {self}")
        return self

    def as_tuple(self) -> tuple[int, int, int, int]:
        return self[:4]


def check_hypotheses(
    params: FamilyParams, tab_amb: CohomologyTable, tab_bma: CohomologyTable
) -> HypothesisFlags:
    """Compute the vanishing flags and cross-assert their window inequalities.

    tab_amb and tab_bma are the cohomology tables of A-B and B-A.  v3 has no
    window on the family: by Serre duality h^1(B - A) = h^1((2e+2+t-b)*f) =
    h^1(P^1, O(2e+2+t-b)), which vanishes iff b <= 2e+3+t, and validation
    gives b < 2e+4+t.  So v3 must hold.  On the family v2 then means
    b = 2e+3+t, and v1 there means e <= 2, so the regime flag must equal
    v1 and v2 and v3, both ways.
    """
    v1 = tab_amb.h1 == 0
    v2 = tab_bma.h2 == 0
    v3 = tab_bma.h1 == 0
    e, b, t = params.e, params.b, params.t
    if v1 != (b < 6 + t + e):
        raise ConsistencyError(f"h1(A-B) = 0 iff b < 6+t+e violated at {params}")
    if v2 != (b >= 2 * e + 3 + t):
        raise ConsistencyError(f"h2(B-A) = 0 iff b >= 2e+3+t violated at {params}")
    if not v3:
        raise ConsistencyError(f"h1(B-A) = 0 must hold on every member; violated at {params}")
    if params.paper_regime != (v1 and v2 and v3):
        raise ConsistencyError(
            f"e <= 2 and b = 2e+3+t must hold iff v1, v2, v3 do; violated at {params}"
        )
    return HypothesisFlags(params.paper_regime, v1, v2, v3)


def chi_normal(params: FamilyParams, n: int, d: int, nums: IntersectionNumbers) -> int:
    """chi(N) by Hirzebruch-Riemann-Roch; valid for every parameter triple.

    N is the normal bundle of X in P^n, of rank n - 3, with c(N) =
    (1 + L)^(n+1) / c(T_X).  With c_i = c_i(T_X) (Fulton, 15.2),

        12 chi(N) = 2 (n1^3 - 3 n1.n2 + 3 n3) + 3 c1.(n1^2 - 2 n2)
                    + (c1^2 + c2).n1 + 12 (n - 3),

    where n1 = K + pL and n1^2 - 2 n2 = pL^2 - K^2 + 2 c2 for p = n+1.  n2
    and n3 bring in C(n+1, 2) and C(n+1, 3) six times over, as 3n(n+1) and
    (n-1)n(n+1), so 12 chi(N) is one integer polynomial in n and the
    intersection numbers ``nums``.  It must be 12 times the closed form
    (d-3e-3b-3t-12)*n + 122 + 21t + 21e + 21b - 3d, an integer.
    """
    l3, kl2, k2l, k3, c2l, kc2, c3 = nums
    p = n + 1
    six_h, six_s = 3 * n * p, (n - 1) * n * p
    n1_cubed = k3 + 3 * p * k2l + 3 * p * p * kl2 + p * p * p * l3
    six_n1_n2 = 6 * (k3 + 2 * p * k2l + p * p * kl2 - kc2 - p * c2l) + six_h * (kl2 + p * l3)
    six_n3 = six_s * l3 + six_h * kl2 + 6 * (p * k2l - p * c2l - 2 * kc2 + k3 - c3)
    ch2_td1 = k3 - p * kl2 - 2 * kc2  # c1.(n1^2 - 2 n2)
    ch1_td2 = k3 + p * k2l + kc2 + p * c2l  # (c1^2 + c2).n1
    twelve_chi = 2 * n1_cubed - six_n1_n2 + six_n3 + 3 * ch2_td1 + ch1_td2 + 12 * (n - 3)
    e, b, t = params.e, params.b, params.t
    chi_n = (d - 3 * e - 3 * b - 3 * t - 12) * n + 122 + 21 * t + 21 * e + 21 * b - 3 * d
    if twelve_chi != 12 * chi_n:
        raise ConsistencyError(
            f"12*chi(N) != 12*((d-3e-3b-3t-12)*n + 122+21t+21e+21b-3d) at {params}: "
            f"HRR gives {twelve_chi}, closed form {12 * chi_n}"
        )
    return chi_n


def _fiber_tangent_table(e: int) -> tuple[int, int, int]:
    """h^i of the tangent bundle of F_e, with a Riemann-Roch cross-check."""
    table = (6, 0, 0) if e == 0 else (e + 5, e - 1, 0)
    minus_k = -canonical_class(e)
    # rank-two Riemann-Roch: chi(T) = 2 chi(O) + c1.(c1 - K)/2 - c2, c2(T_F) = 4
    chi_rr = 2 + intersect(e, minus_k, minus_k - canonical_class(e)) // 2 - 4
    if table[0] - table[1] + table[2] != chi_rr or chi_rr != 6:
        raise ConsistencyError(f"chi(T_F) != 6 at e={e}: table {table}, RR {chi_rr}")
    return table


def tangent_cohomology(
    params: FamilyParams,
    flags: HypothesisFlags,
    pieces: tuple[CohomologyTable, CohomologyTable, CohomologyTable],
) -> TangentCohomology:
    """h^i(T_X) from the relative-tangent sequence; gated on all flags.

    The sequence 0 -> Sym^2(E)(-c1) -> T_X -> T_F' -> 0 gives, once the
    twisted Sym^2 piece has no higher cohomology,

        h^0(T_X) = h^0(Sym^2 E (-c1)) + h^0(T_F),  h^1(T_X) = h^1(T_F),
        h^2 = h^3 = 0.

    flags come from check_hypotheses and pieces = sym2_pieces(bundle).
    (h^0, h^1)(T_X) = (e+12, e-1) for e > 0, (13, 0) at e = 0, is
    asserted; each pair has chi(T_X) = h^0 - h^1 = 13.
    """
    if not flags.all_hold():
        raise HypothesesError(flags.failing())
    tab_amb, tab_trivial, tab_bma = pieces
    sym2 = tab_amb + tab_trivial + tab_bma
    if (sym2.h1, sym2.h2) != (0, 0):
        raise ConsistencyError(
            f"higher cohomology of Sym^2(E)(-c1) must vanish under the flags: "
            f"{sym2.as_tuple()} at {params}"
        )
    fiber = _fiber_tangent_table(params.e)
    h0 = sym2.h0 + fiber[0]
    h1 = fiber[1]
    table = TangentCohomology(h0, h1, 0, 0, h0 - h1)
    e = params.e
    expected = (13, 0) if e == 0 else (e + 12, e - 1)
    if (table.h0, table.h1) != expected:
        raise ConsistencyError(
            f"(h0, h1)(T_X) != {expected} at {params}: got {(table.h0, table.h1)}"
        )
    return table


def component_dimension(
    params: FamilyParams, n: int, chi_n: int, tangent: TangentCohomology
) -> tuple[int, int, int, int]:
    """h^i(N) = (chi(N), 0, 0, 0) from the member's n, chi(N) and h^i(T_X).

    tangent comes from tangent_cohomology, so the flags hold and h^0(N) =
    chi(N) is the component dimension.  The identification h^0(N) =
    (n+1)^2 - 1 - h^0(T_X) + h^1(T_X) coming from the Euler sequence is run
    as a mandatory self-check, and so is the regime form chi(N) = n(n+1) +
    9e + 20 + 6t.  The scroll locus has codimension h^1(T_X), which
    tangent_cohomology asserts is max(e-1, 0).
    """
    regime_form = n * (n + 1) + 9 * params.e + 20 + 6 * params.t
    if chi_n != regime_form:
        raise ConsistencyError(
            f"chi(N) != n(n+1)+9e+20+6t on the regime at {params}: "
            f"got {chi_n}, expected {regime_form}"
        )
    h0_n_euler = (n + 1) ** 2 - 1 - tangent.h0 + tangent.h1
    if h0_n_euler != chi_n:
        raise ConsistencyError(
            f"h^0(N) != (n+1)^2 - 1 - h^0(T_X) + h^1(T_X) at {params}: "
            f"chi(N)={chi_n}, Euler-sequence value {h0_n_euler}"
        )
    return (chi_n, 0, 0, 0)
