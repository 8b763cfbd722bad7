"""Sparse polynomials with integer coefficients.

Poly(pairs) sums the (monomial, coefficient) pairs, a monomial being the
sorted tuple of its variables' names (x^2*y is ("x", "x", "y")), and keeps
no zero coefficient.  +, -, * and == take a Poly or an int, so straight-line
integer code run on Poly variables proves an identity for every integer
value of them: it holds exactly when its two sides are equal polynomials.
divmod by an int works coefficient by coefficient.

Arithmetic builds each result's dict directly and relies on two invariants:
no zero coefficient is stored, and a Poly is never mutated, so a result may
share an operand (p + 0 is p).  Only Poly(pairs) and Poly.var normalise.
"""

from __future__ import annotations

from collections.abc import Iterable


class Poly:
    __slots__ = ("terms",)

    def __init__(self, pairs: Iterable[tuple[tuple[str, ...], int]]) -> None:
        terms: dict[tuple[str, ...], int] = {}
        for mono, c in pairs:
            mono = tuple(sorted(mono))
            terms[mono] = terms.get(mono, 0) + c
        self.terms = {mono: c for mono, c in terms.items() if c}

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls([((name,), 1)])

    def __add__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            if not other:
                return self
            return _fold(self.terms, {(): int(other)}, 1)  # a bool as the int it equals
        return _fold(self.terms, other.terms, 1)

    def __sub__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return self + -other
        return _fold(self.terms, other.terms, -1)

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return _make({mono: c * other for mono, c in self.terms.items()} if other else {})
        terms: dict[tuple[str, ...], int] = {}
        for m2, c2 in other.terms.items():
            for m1, c1 in self.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return _make({mono: c for mono, c in terms.items() if c})

    __radd__, __rmul__ = __add__, __mul__

    def __divmod__(self, k: int) -> tuple[Poly, Poly]:
        """(q, r) with self = k*q + r, by divmod of each coefficient by the int k.

        r is zero exactly when k divides every coefficient, so exact_div
        runs unchanged on a Poly.
        """
        if not isinstance(k, int):
            return NotImplemented
        pairs = [(mono, divmod(c, k)) for mono, c in self.terms.items()]
        return (_make({mono: q for mono, (q, _r) in pairs if q}),
                _make({mono: r for mono, (_q, r) in pairs if r}))

    def __neg__(self) -> Poly:
        return self * -1

    def __rsub__(self, other: int) -> Poly:
        return -self + other

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == {(): other} if other else not self.terms
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)  # not the zero polynomial, as for an int

    def __repr__(self) -> str:
        terms = sorted(self.terms.items())
        return " + ".join("*".join((str(c),) + mono) for mono, c in terms) or "0"


def _make(terms: dict[tuple[str, ...], int]) -> Poly:
    """The Poly holding terms, which must be sorted monomials with nonzero coefficients."""
    poly = object.__new__(Poly)
    poly.terms = terms
    return poly


def _fold(left: dict, right: dict, sign: int) -> Poly:
    """left + sign*right, folding the smaller dict into a copy of the larger."""
    if len(left) < len(right) and sign == 1:
        left, right = right, left
    terms = left.copy()
    for mono, c in right.items():
        c = terms.get(mono, 0) + sign * c
        if c:
            terms[mono] = c
        else:
            del terms[mono]
    return _make(terms)
