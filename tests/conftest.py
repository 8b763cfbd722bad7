"""The one symbolic member: Member on polynomial variables, for the tests' proofs.

symbolic_member(e, b, t) is Member(FamilyParams._make((e, b, t))), which
skips validation, so e, b and t may be Poly.  Nothing from the split form
to chi(N) branches on them, so every ungated value of the member is the
closed form of every member at once.  n = h^0(E) - 1 is given as
5e+2b+4t+27, because cohomology() branches on values; a proof checks it
against chi(Sym^1 E) - 1.  The values that read line-bundle tables (n,
tables, h_of_L, sym2_pieces, flags, tangent, h_of_N) are not run.

_prod(ctx, *classes) folds multiply over classes, the full product in the
Chow ring; import it with `from conftest import _prod`.

_substitute(poly, point) is poly with each variable named in point set to
its int value, for the tests that compare a symbolic value with a member's.

_mutant(fn, old, new) is fn recompiled with one edit, for the tests that
check a fault is caught; import it with `from conftest import _mutant`.
It is compiled without its decorators, so building a mutant of a verify
check registers nothing; a caller that needs the descriptor (a property,
Member's _once) wraps the mutant itself.

_fresh_child(code) runs code in a fresh interpreter that imports this
checkout's fescroll, whose environment _fresh_env() gives.

The pytester plugin is loaded for the self-tests of the test settings.
"""

import ast
import inspect
import math
import os
import subprocess
import sys
import textwrap
from functools import partial, reduce
from pathlib import Path

import pytest

import fescroll
from fescroll import chow_ring as cr
from fescroll.bundle_family import FamilyParams
from fescroll.member import Member
from fescroll.poly import Poly

pytest_plugins = ["pytester"]


def _symbolic_member(e, b, t) -> Member:
    member = Member(FamilyParams._make((e, b, t)))  # namedtuple's own constructor
    member.n = 5 * e + 2 * b + 4 * t + 27  # shadows the _once that reads the tables
    return member


@pytest.fixture
def symbolic_member():
    """The factory symbolic_member(e, b, t) of symbolic members."""
    return _symbolic_member


def _prod(ctx: cr.ScrollContext, *classes: cr.ChowClass) -> cr.ChowClass:
    """The product of classes, multiplied left to right in the ring of ctx."""
    return reduce(partial(cr.multiply, ctx), classes)


def _substitute(poly: Poly, point: dict[str, int]) -> Poly:
    """poly with each variable named in point set to its int value."""
    return Poly((tuple(v for v in mono if v not in point),
                 c * math.prod(point[v] for v in mono if v in point))
                for mono, c in poly.terms.items())


def _mutant(fn, old: str, new: str):
    """fn recompiled from its source, with the one occurrence of old replaced by
    new and without its decorators."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    tree = ast.parse(source.replace(old, new))
    tree.body[0].decorator_list = []
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(tree, inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def _fresh_env() -> dict:
    """os.environ with this checkout's fescroll first on PYTHONPATH."""
    src = str(Path(fescroll.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _fresh_child(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's fescroll."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_fresh_env())
