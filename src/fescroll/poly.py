"""Sparse polynomials with integer coefficients.

Poly(pairs) sums the (monomial, coefficient) pairs, a monomial being the
sorted tuple of its variables' names (x^2*y is ("x", "x", "y")), and keeps
no zero coefficient.  +, -, * and == take a Poly or an int, so straight-line
integer code run on Poly variables proves an identity for every integer
value of them: it holds exactly when its two sides are equal polynomials.
"""

from __future__ import annotations

from collections.abc import Iterable


class Poly:
    __slots__ = ("terms",)

    def __init__(self, pairs: Iterable[tuple[tuple[str, ...], int]]) -> None:
        terms: dict[tuple[str, ...], int] = {}
        for mono, c in pairs:
            terms[mono] = terms.get(mono, 0) + c
        self.terms = {mono: c for mono, c in terms.items() if c}

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls([((name,), 1)])

    def __add__(self, other: Poly | int) -> Poly:
        return Poly([*self.terms.items(), *_lift(other).terms.items()])

    def __mul__(self, other: Poly | int) -> Poly:
        return Poly((tuple(sorted(m1 + m2)), c1 * c2)
                    for m2, c2 in _lift(other).terms.items() for m1, c1 in self.terms.items())

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> Poly:
        return self * -1

    def __sub__(self, other: Poly | int) -> Poly:
        return self + -_lift(other)

    def __rsub__(self, other: int) -> Poly:
        return -self + other

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (Poly, int)) and self.terms == _lift(other).terms

    def __bool__(self) -> bool:
        return bool(self.terms)  # not the zero polynomial, as for an int

    def __repr__(self) -> str:
        terms = sorted(self.terms.items())
        return " + ".join("*".join((str(c),) + mono) for mono, c in terms) or "0"


def _lift(x: Poly | int) -> Poly:
    return x if isinstance(x, Poly) else Poly([((), x)])
