"""Each member's values are computed once per CLI call, and each line-bundle
table once per surface.

Counting wrappers replace a function in every fescroll namespace that
binds it, because the modules import each other's functions by name.
"""

import sys
from collections import Counter

import pytest

import fescroll.cli as cli
from fescroll import (
    bundle_family,
    chow_ring,
    hilbert_component,
    scroll_invariants,
    surface_lattice,
)
from fescroll.bundle_family import FamilyParams, build_split, iter_valid_params
from fescroll.errors import ConsistencyError
from fescroll.member import Member
from fescroll.surface_lattice import ZERO, SurfaceTables

COUNTED = {
    bundle_family: ("build_split", "chern", "invariant_r", "bundle_cohomology",
                    "sym2_pieces"),
    chow_ring: ("chern_TX", "intersection_numbers", "multiply"),
    hilbert_component: ("check_hypotheses", "tangent_cohomology"),
    scroll_invariants: ("hilbert_polynomial",),
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, names in COUNTED.items():
        for name in names:
            _replace_everywhere(monkeypatch, module, name, counting)
    return counts


def _replace_everywhere(monkeypatch, module, name, make_wrapper):
    original = getattr(module, name)
    wrapper = make_wrapper(name, original)
    for modname, namespace in list(sys.modules.items()):
        if modname.startswith("fescroll") and vars(namespace).get(name) is original:
            monkeypatch.setattr(namespace, name, wrapper)


def test_report_computes_each_value_once(calls, capsys):
    assert cli.main(["report", "-e", "2", "-b", "7", "-t", "0"]) == 0
    capsys.readouterr()
    assert dict(calls) == {
        "build_split": 1,
        "chern": 1,
        "invariant_r": 1,
        "bundle_cohomology": 1,
        "sym2_pieces": 1,
        "check_hypotheses": 1,
        "chern_TX": 1,
        "intersection_numbers": 1,  # reads its numbers off K_X: no product
        "multiply": 3,  # the three products inside chern_TX
        "tangent_cohomology": 1,
        "hilbert_polynomial": 1,
    }


def test_table_computes_chern_once_per_row(calls, capsys):
    assert cli.main(["table", "--e-max", "2", "--t-max", "2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 54
    assert calls["chern"] == len(rows)
    assert calls["build_split"] <= 2 * len(rows)
    # d is c1^2 - c2: only the 9 regime rows build the intersection numbers
    assert calls["intersection_numbers"] == 9


def test_table_computes_intersection_numbers_once_per_row(calls, capsys):
    argv = ["table", "--e-max", "2", "--t-max", "2", "--paper-regime-only"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 9
    assert calls["intersection_numbers"] == len(rows)


@pytest.mark.parametrize("argv", [["report", "-e", "2", "-b", "7", "-t", "0"],
                                  ["hilbert", "-e", "2", "-t", "0"]])
def test_chow_products_run_only_in_chern_tx(monkeypatch, capsys, argv):
    # chi(N) and P(m) read the intersection numbers, which come from the
    # pairings; the only full products are the three inside chern_TX
    depth, inside = [0], []

    def tracking(_name, fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    def recording(_name, fn):
        def wrapper(*args):
            inside.append(depth[0] > 0)
            return fn(*args)
        return wrapper

    _replace_everywhere(monkeypatch, chow_ring, "chern_TX", tracking)
    _replace_everywhere(monkeypatch, chow_ring, "multiply", recording)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert inside == [True, True, True]


def test_verify_computes_each_value_once_per_member(calls, capsys):
    # the member identities share one Member per (e, b, t), and the members
    # of one F_e with one c1 = 4*C0 + (b+3e+6+t)*f share its chern_TX, which
    # the run also builds twice on variables, with c2 free and at c2 = 0, to
    # prove it free of c2
    assert cli.main(["verify", "--e-max", "1", "--t-max", "1"]) == 0
    capsys.readouterr()
    grid = list(iter_valid_params(1, 1))
    members, surface_c1s = len(grid), len({(p.e, p.b + p.t) for p in grid})
    assert (members, surface_c1s) == (20, 13)
    names = ("chern", "bundle_cohomology", "intersection_numbers", "hilbert_polynomial")
    assert {name: calls[name] for name in names} == dict.fromkeys(names, members)
    assert calls["build_split"] == members
    assert calls["chern_TX"] == surface_c1s + 2


def test_report_computes_each_line_bundle_table_once(monkeypatch, capsys):
    # a regime member needs the tables of A and B (for E) and of A-B, O and
    # B-A (for the flags and for Sym^2(E)(-c1)), each exactly once
    classes = Counter()

    def recording(_name, fn):
        def wrapper(e, d):
            classes[d] += 1
            return fn(e, d)
        return wrapper

    _replace_everywhere(monkeypatch, surface_lattice, "cohomology", recording)
    assert cli.main(["report", "-e", "2", "-b", "7", "-t", "0"]) == 0
    capsys.readouterr()
    bundle = build_split(FamilyParams(2, 7, 0))
    pieces = (bundle.A, bundle.B, bundle.A - bundle.B, ZERO, bundle.B - bundle.A)
    assert classes == Counter(pieces)


def _counting_cohomology(monkeypatch, fail_on=None):
    """Count surface_lattice.cohomology calls by (e, class); raise at fail_on."""
    computed = Counter()
    real = surface_lattice.cohomology

    def counting(e, d):
        computed[e, d] += 1
        if d == fail_on:
            raise ConsistencyError(f"table of {d} unavailable")
        return real(e, d)

    monkeypatch.setattr(surface_lattice, "cohomology", counting)
    return computed


def test_table_computes_each_line_bundle_table_once_per_surface(monkeypatch, capsys):
    # the members of one surface share its tables: 270 lookups, 75 tables
    computed = _counting_cohomology(monkeypatch)
    assert cli.main(["table", "--e-max", "2", "--t-max", "2"]) == 0
    capsys.readouterr()
    grid = list(iter_valid_params(2, 2))
    read = set()
    for p in grid:
        bun = build_split(p)
        read.update((p.e, d) for d in (bun.A, bun.B, bun.A - bun.B, ZERO, bun.B - bun.A))
    assert (5 * len(grid), len(read)) == (270, 75)
    assert computed == Counter(read)


def test_a_table_that_raised_is_not_kept(monkeypatch):
    # two members of F_2 with the same A - B; each reads it afresh, and so
    # does the first member once the table can be computed again
    first, second = FamilyParams(2, 7, 0), FamilyParams(2, 8, 1)
    amb = build_split(first).A - build_split(first).B
    assert amb == build_split(second).A - build_split(second).B
    real = surface_lattice.cohomology
    computed = _counting_cohomology(monkeypatch, fail_on=amb)
    surface = SurfaceTables(2)
    members = Member(first, surface), Member(second, surface)
    for member in members:
        with pytest.raises(ConsistencyError, match="unavailable"):
            member.flags
    assert computed[2, amb] == 2 and amb not in surface
    monkeypatch.setattr(surface_lattice, "cohomology", real)
    assert members[0].flags.all_hold()
