"""Sparse polynomials with integer coefficients.

Poly(pairs) sums the (monomial, coefficient) pairs, a monomial being the
sorted tuple of its variables' names (x^2*y is ("x", "x", "y")), and keeps
no zero coefficient.  +, -, * and == take a Poly or an int, so straight-line
integer code run on Poly variables proves an identity for every integer
value of them: it holds exactly when its two sides are equal polynomials.
divmod by an int works coefficient by coefficient, and at() substitutes
integers for some of the variables.

Every result comes from that constructor, with no faster path beside it:
verify runs its symbolic proofs once per run, outside every loop.
"""

from __future__ import annotations

import math
import operator
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
        return Poly([*self.terms.items(), *_lift(other).terms.items()])

    def __sub__(self, other: Poly | int) -> Poly:
        return self + -_lift(other)

    def __mul__(self, other: Poly | int) -> Poly:
        return Poly((m1 + m2, c1 * c2)
                    for m2, c2 in _lift(other).terms.items() for m1, c1 in self.terms.items())

    __radd__, __rmul__ = __add__, __mul__

    def __divmod__(self, k: int) -> tuple[Poly, Poly]:
        """(q, r) with self = k*q + r, by divmod of each coefficient by the int k.

        r is zero exactly when k divides every coefficient, so exact_div
        runs unchanged on a Poly.
        """
        if not isinstance(k, int):
            return NotImplemented
        pairs = [(mono, divmod(c, k)) for mono, c in self.terms.items()]
        return (Poly((mono, q) for mono, (q, _r) in pairs),
                Poly((mono, r) for mono, (_q, r) in pairs))

    def at(self, point: dict[str, int]) -> Poly:
        """This polynomial with each variable named in point set to its int value."""
        return Poly((tuple(v for v in mono if v not in point),
                     c * math.prod(point[v] for v in mono if v in point))
                    for mono, c in self.terms.items())

    def __neg__(self) -> Poly:
        return self * -1

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
    return x if isinstance(x, Poly) else Poly([((), operator.index(x))])  # no float
