"""One member (e, b, t) of the family and everything derived from it.

A Member wraps a validated parameter triple.  Each of its values is
computed on first access and kept, and the layer functions take the
values they build on as arguments, so every value is derived once per
member and the cross-check that guards it runs once, when it is first
computed: the Chern data, one ScrollContext(e, c1, c2), are the context
of the Chow ring, the ring gives the intersection numbers, and those check
chi(N) and P(m) = chi(Sym^m E).  verify reads a member's ring only through
chern and chern_TX: the products it compares the numbers with are proved
once per run, not made per member.

Nothing is cached across members but the line-bundle tables of their
surface: a grid command builds one SurfaceTables per F_e and hands it to
every member of that surface, so a table of A, B, A-B, O or B-A is
computed once per surface; a single-member command builds its own.  The
one other value shared is verify's: a member of its sweep reads chern_TX
from the sweep, which builds it once per c1 when the run proves c(T_X)
free of c2.  Build one Member per (e, b, t) and let it go when its output
is formatted.
"""

from __future__ import annotations

from . import bundle_family as bf
from . import chow_ring as cr
from . import hilbert_component as hc
from . import scroll_invariants as si
from .surface_lattice import CohomologyTable, SurfaceTables


class _once:
    """A value computed on first access and kept in the instance __dict__,
    which then shadows this non-data descriptor.  Unlike functools'
    cached_property on Python 3.11 it takes no lock; a value that raises
    is not kept."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, member, owner=None):
        if member is None:
            return self
        value = member.__dict__[self.name] = self.fn(member)
        return value


class Member:
    def __init__(self, params: bf.FamilyParams, surface: SurfaceTables | None = None) -> None:
        """surface holds the tables of F_e, shared with the other members of a
        grid command; by default the member builds its own."""
        self.params = params
        self.surface = SurfaceTables(params.e) if surface is None else surface

    @_once
    def chern(self) -> cr.ScrollContext:
        """ScrollContext(e, c1, c2) of E, agreed across the three presentations."""
        return bf.chern(self.params, self.split)

    @_once
    def split(self) -> bf.SplitBundle:
        return bf.build_split(self.params)

    @_once
    def tables(self) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
        """Cohomology tables of A, B and E = A + B."""
        return bf.bundle_cohomology(self.params, self.split, self.surface)

    @_once
    def n(self) -> int:
        """Embedding dimension n = h^0(E) - 1."""
        return self.tables[2].h0 - 1

    @_once
    def d(self) -> int:
        """Degree of the scroll."""
        return si.scroll_degree(self.params, self.chern)

    @_once
    def h_of_L(self) -> tuple[int, int, int, int]:
        """h^i(X, L) for i = 0..3: the table of E with h^3 = 0."""
        return (*self.tables[2].as_tuple(), 0)

    @_once
    def uniformity(self) -> bf.UniformityEvidence:
        """r, ell2, ell3 and the splitting type, each checked."""
        return bf.is_uniform(self.params, self.split, self.chern)

    @_once
    def chern_TX(self) -> tuple[cr.ChowClass, cr.ChowClass, cr.ChowClass]:
        return cr.chern_TX(self.chern)

    @_once
    def intersection_numbers(self) -> cr.IntersectionNumbers:
        return cr.intersection_numbers(self.params, self.chern, self.chern_TX)

    @_once
    def hilbert_poly(self) -> si.BinomialCubic:
        return si.hilbert_polynomial(self.params, self.split, self.intersection_numbers)

    @_once
    def sym2_pieces(self) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
        """Cohomology tables of A-B, O and B-A, the summands of Sym^2(E)(-c1)."""
        return bf.sym2_pieces(self.split, self.surface)

    @_once
    def flags(self) -> hc.HypothesisFlags:
        tab_amb, _trivial, tab_bma = self.sym2_pieces
        return hc.check_hypotheses(self.params, tab_amb, tab_bma)

    @_once
    def chi_N(self) -> int:
        """Euler characteristic of the normal bundle; needs no hypotheses."""
        return hc.chi_normal(self.params, self.n, self.d, self.intersection_numbers)

    @_once
    def tangent(self) -> hc.TangentCohomology:
        """h^i(T_X); raises HypothesesError unless every flag holds."""
        chi = hc.chi_tangent(self.intersection_numbers)
        return hc.tangent_cohomology(self.params, self.flags, self.sym2_pieces, chi)

    @_once
    def h_of_N(self) -> tuple[int, int, int, int]:
        """h^i(N) for i = 0..3, h^0 the component dimension; raises
        HypothesesError unless every flag holds, as tangent does."""
        return hc.component_dimension(self.params, self.n, self.chi_N, self.tangent)
