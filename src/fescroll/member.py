"""One member (e, b, t) of the family and everything derived from it.

A Member wraps a validated parameter triple.  Each of its values is
computed on first access and kept, and the layer functions take the
values they build on as arguments, so every value is derived once per
member and the cross-check that guards it runs once, when it is first
computed: the Chern data give the Chow ring, the ring gives the
intersection numbers, and those give P(m) and chi(N).

Nothing is cached across members; build one Member per (e, b, t) and let
it go when its output is formatted.
"""

from __future__ import annotations

from functools import cached_property

from . import bundle_family as bf
from . import chow_ring as cr
from . import hilbert_component as hc
from . import scroll_invariants as si
from .surface_lattice import CohomologyTable


class Member:
    def __init__(self, params: bf.FamilyParams) -> None:
        self.params = params

    @cached_property
    def chern(self) -> bf.ChernData:
        """c1 and c2 of E, agreed across the three presentations."""
        return bf.chern(self.params, self.split)

    @cached_property
    def ctx(self) -> cr.ScrollContext:
        return cr.ScrollContext(self.params, self.chern.c1, self.chern.c2)

    @cached_property
    def split(self) -> bf.SplitBundle:
        return bf.build_split(self.params)

    @cached_property
    def tables(self) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
        """Cohomology tables of A, B and E = A + B."""
        return bf.bundle_cohomology(self.params, self.split)

    @cached_property
    def n(self) -> int:
        """Embedding dimension n = h^0(E) - 1."""
        return self.tables[2].h0 - 1

    @cached_property
    def d(self) -> int:
        """Degree of the scroll."""
        return si.scroll_degree(self.ctx)

    @cached_property
    def h_of_L(self) -> tuple[int, int, int, int]:
        """h^i(X, L) for i = 0..3: the table of E with h^3 = 0."""
        return (*self.tables[2].as_tuple(), 0)

    @cached_property
    def uniformity(self) -> bf.UniformityEvidence:
        """r, ell2 and ell3."""
        return bf.is_uniform(self.split, self.chern)

    @cached_property
    def splitting_type(self) -> tuple[int, int]:
        return bf.splitting_type(self.params, self.uniformity)

    @cached_property
    def chern_TX(self) -> tuple[cr.ChowClass, cr.ChowClass, cr.ChowClass]:
        return cr.chern_TX(self.ctx)

    @cached_property
    def intersection_numbers(self) -> cr.IntersectionNumbers:
        return cr.intersection_numbers(self.ctx, self.chern_TX)

    @cached_property
    def hilbert_poly(self) -> si.RationalCubic:
        return si.hilbert_polynomial(self.params, self.split, self.intersection_numbers)

    @cached_property
    def sym2_pieces(self) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
        """Cohomology tables of A-B, O and B-A, the summands of Sym^2(E)(-c1)."""
        return bf.sym2_pieces(self.split)

    @cached_property
    def flags(self) -> hc.HypothesisFlags:
        tab_amb, _trivial, tab_bma = self.sym2_pieces
        return hc.check_hypotheses(self.params, tab_amb, tab_bma)

    @cached_property
    def chi_N(self) -> int:
        """Euler characteristic of the normal bundle; needs no hypotheses."""
        return hc.chi_normal(self.params, self.n, self.d, self.intersection_numbers)

    @cached_property
    def tangent(self) -> hc.TangentCohomology:
        """h^i(T_X); raises HypothesesError unless every flag holds."""
        return hc.tangent_cohomology(self.params, self.flags, self.sym2_pieces)

    @cached_property
    def hilbert(self) -> hc.HilbertReport:
        """The component report; raises HypothesesError unless every flag holds."""
        return hc.component_dimension(
            self.params, self.flags, self.n, self.d, self.chi_N, self.tangent
        )
