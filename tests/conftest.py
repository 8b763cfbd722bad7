"""The one symbolic member: Member on polynomial variables, for the tests' proofs.

symbolic_member(e, b, t) is Member(FamilyParams._make((e, b, t))), which
skips validation, so e, b and t may be Poly.  Nothing from the split form
to chi(N) branches on them, so every ungated value of the member is the
closed form of every member at once.  n = h^0(E) - 1 is given as
5e+2b+4t+27, because cohomology() branches on values; a proof checks it
against chi(Sym^1 E) - 1.  The values that read line-bundle tables (n,
tables, h_of_L, sym2_pieces, flags, tangent, h_of_N) are not run.

_mutant(fn, old, new) is fn recompiled with one edit, for the tests that
check a fault is caught; import it with `from conftest import _mutant`.
"""

import inspect
import textwrap

import pytest

from fescroll.bundle_family import FamilyParams
from fescroll.member import Member


def _symbolic_member(e, b, t) -> Member:
    member = Member(FamilyParams._make((e, b, t)))  # namedtuple's own constructor
    member.n = 5 * e + 2 * b + 4 * t + 27  # shadows the _once that reads the tables
    return member


@pytest.fixture
def symbolic_member():
    """The factory symbolic_member(e, b, t) of symbolic members."""
    return _symbolic_member


def _mutant(fn, old: str, new: str):
    """fn recompiled from its source with the one occurrence of old replaced by new."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]
