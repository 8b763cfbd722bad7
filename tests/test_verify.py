"""Internals of the verify battery: the r oracle and the threshold certificate,
the per-surface table memo, the sample draws, the recorder, how an error
raised inside an identity is counted, the guard identities that fail when
only a layer's own check catches a fault, the identity names the benchmark
traces, and the identity that a broken Chow pairing fails."""

import json
import math
import random
import weakref
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import fescroll.cli as cli
from fescroll import bundle_family as bf
from fescroll import chow_ring as cr
from fescroll import hilbert_component as hc
from fescroll import scroll_invariants as si
from fescroll import surface_lattice as sl
from fescroll import verify
from fescroll.bundle_family import FamilyParams, build_split, invariant_r, iter_valid_params
from fescroll.errors import ConsistencyError
from fescroll.member import Member

UNIFORMITY = "r = 3e+5+t and ell(c1, c2, 3, r) = 0: uniform of splitting type (3, 1)"
ELL2 = "ell(c1, c2, 2, r) = b-t-2e-4 < 0 for every r in [0, 40]"
FIBER_TANGENT = "chi(T_{F_e}) = 6: table (e+5, e-1, 0) for e > 0, (6, 0, 0) at e = 0"
P_MINUS_1 = "P(-1) = chi(O_X(-1)) = 0 (every R^i pi_* O_X(-1) vanishes on a P^1-bundle)"

# -- r oracle ----------------------------------------------------------------


@pytest.mark.parametrize("d1", [1, 2, 3])
def test_r_oracle_calls_cohomology_logarithmically(monkeypatch, d1):
    p = FamilyParams(2, 3007, 3000)
    span = 3 * p.e + 6 + p.t + abs(p.b) + 4
    calls = []
    real = sl.cohomology

    def counting(e, d):
        calls.append(d)
        return real(e, d)

    monkeypatch.setattr(sl, "cohomology", counting)
    assert verify._r_by_scan(p, d1) == invariant_r(build_split(p), d1) == 3 * p.e + 5 + p.t
    # two window edges and one midpoint per halving, two summands each
    assert len(calls) <= 2 * (2 + math.ceil(math.log2(2 * span + 1)))


def _constant_h0(h0):
    table = sl.CohomologyTable(h0, 0, 0, h0)
    return lambda s, d: table


@pytest.mark.parametrize(
    "h0, message",
    [(1, "below the scan window"), (0, "no section threshold in the scan window")],
)
def test_r_oracle_window_edges(monkeypatch, h0, message):
    monkeypatch.setattr(sl, "cohomology", _constant_h0(h0))
    with pytest.raises(ConsistencyError, match=message):
        verify._r_by_scan(FamilyParams(2, 7, 0), 3)


# -- threshold certificate -----------------------------------------------------


@pytest.mark.parametrize("d1", [2, 3])
@pytest.mark.parametrize("shift", [1, -1])
def test_shifted_threshold_fails_the_uniformity_identity(monkeypatch, capsys, d1, shift):
    for p in iter_valid_params(1, 1):
        r = invariant_r(build_split(p), d1)
        assert verify._is_threshold(Member(p), d1, r)
        assert not verify._is_threshold(Member(p), d1, r + shift)
    real = bf.invariant_r
    monkeypatch.setattr(bf, "invariant_r", lambda p, k: real(p, k) + shift * (k == d1))
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL")]
    assert code == 3
    assert any(line.endswith(UNIFORMITY) for line in failing)


@pytest.mark.parametrize("e, b, t", [(2, 3007, 3000), (0, 3, 0)])
def test_uniformity_identity_calls_cohomology_at_most_eight_times(monkeypatch, e, b, t):
    member = Member(FamilyParams(e, b, t))
    calls = []
    real = sl.cohomology

    def counting(e, d):
        calls.append(d)
        return real(e, d)

    monkeypatch.setattr(sl, "cohomology", counting)
    rec = verify.CheckResult("identity")
    verify._check_uniformity(rec, member)
    assert (rec.cases, rec.failures) == (1, [])
    assert len(calls) <= 8


# -- per-surface table memo ----------------------------------------------------


def test_surface_identities_compute_each_class_once_per_surface(monkeypatch):
    # every cohomology call of run_all, the member identities and the
    # threshold certificate included, reads the one sweep of its surface
    computed = Counter()
    real = sl.cohomology

    def counting(e, d):
        computed[e, d.a, d.c] += 1
        return real(e, d)

    sweeps, alive_at_creation = [], []

    class TrackedSweep(verify._Sweep):
        def __init__(self, e, t_max):
            alive_at_creation.append(sum(ref() is not None for ref in sweeps))
            super().__init__(e, t_max)
            sweeps.append(weakref.ref(self))

    monkeypatch.setattr(sl, "cohomology", counting)
    monkeypatch.setattr(verify, "_Sweep", TrackedSweep)
    for _ in range(2):
        assert all(result.ok for result in verify.run_all(1, 2))
    # once per surface in each run: no table outlives its run_all
    assert computed and set(computed.values()) == {2}
    # among them the five tables of every member and the twists that
    # certify its thresholds
    for p in iter_valid_params(1, 2):
        bun = build_split(p)
        classes = [bun.A, bun.B, bun.A - bun.B, sl.ZERO, bun.B - bun.A]
        for d1 in (2, 3):
            r = invariant_r(bun, d1)
            twists = (sl.DivisorClass(-d1, ell) for ell in (-r - 1, -r))
            classes += (summand + twist for twist in twists for summand in (bun.A, bun.B))
        assert all((p.e, d.a, d.c) in computed for d in classes)
    # one sweep per surface, each gone before the next is built and after run_all
    assert alive_at_creation == [0, 0, 0, 0]
    assert all(ref() is None for ref in sweeps)


# -- ring-axiom draws ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345, verify._SEED])
def test_coefficient_draws_equal_randint(seed):
    rng, reference = random.Random(seed), random.Random(seed)
    got = verify._coefficients(rng, 10**4)
    assert got == [reference.randint(-9, 9) for _ in range(10**4)]
    # both generators are left in the same state, so later draws agree too
    assert rng.getstate() == reference.getstate()


# -- recorder -----------------------------------------------------------------


def _detail_not_called():
    raise AssertionError("a detail was formatted that is not kept")


def test_recorder_formats_no_detail_of_a_passing_case():
    rec = verify.CheckResult("identity")
    for _ in range(100):
        rec.case(True, _detail_not_called)
    assert rec.cases == 100 and rec.failures == []


def test_recorder_caps_failures_and_formats_only_kept_ones():
    rec = verify.CheckResult("identity")
    for i in range(verify._MAX_FAILURES):
        rec.case(False, lambda i=i: f"failure {i}")
    for _ in range(20):
        rec.case(False, _detail_not_called)
    rec.case(False, "a plain string detail past the cap")
    assert rec.cases == verify._MAX_FAILURES + 21
    assert rec.failures == [
        *(f"failure {i}" for i in range(verify._MAX_FAILURES)),
        "... more failures suppressed",
    ]


def test_recorder_keeps_string_details():
    rec = verify.CheckResult("identity")
    rec.case(False, "plain")
    rec.case(False, lambda: "lazy")
    assert rec.failures == ["plain", "lazy"]


# -- errors raised inside an identity ----------------------------------------

LATTICE = "h^0 = lattice-point count of the section polytope"


def _results_by_name(e_max, t_max):
    return {result.name: result for result in verify.run_all(e_max, t_max)}


def test_an_error_on_one_surface_is_one_failed_case_of_that_surface(monkeypatch):
    real = sl.h0_lattice_oracle

    def oracle(e, d):
        if e == 1:
            raise ConsistencyError("lattice count unavailable")
        return real(e, d)

    monkeypatch.setattr(sl, "h0_lattice_oracle", oracle)
    results = _results_by_name(2, 0)
    lattice = results.pop(LATTICE)
    assert lattice.failures == ["e=1: lattice count unavailable"]
    # every class of e = 0 and e = 2, and one case for e = 1
    assert lattice.cases == 2 * len(verify._CLASSES) + 1
    assert all(result.ok for result in results.values())


def test_an_error_on_every_member_is_one_failed_case_per_member(monkeypatch):
    def broken(member):
        raise ConsistencyError("P(m) unavailable")

    monkeypatch.setattr(Member, "hilbert_poly", property(broken))
    results = _results_by_name(1, 1)
    expected = [f"{p}: P(m) unavailable"
                for p in islice(iter_valid_params(1, 1), verify._MAX_FAILURES)]
    expected.append("... more failures suppressed")
    # the guard identity that computes P(m) and the one that evaluates it at -1
    for name in ("P(m) = chi(Sym^m E) for m in [0, 8]; P(0) = 1; P(1) = n+1", P_MINUS_1):
        result = results.pop(name)
        assert result.cases == bf.grid_member_count(1, 1)
        assert result.failures == expected
    assert all(result.ok for result in results.values())


# -- faults that only a layer's own check catches --------------------------------


def _verify_1_1_exit_code(capsys):
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    capsys.readouterr()
    return code


def test_a_wrong_fiber_tangent_table_fails_every_guard_that_forces_it(monkeypatch, capsys):
    # Riemann-Roch for T_{F_e} reads chi = 7, so _fiber_tangent_table raises,
    # and with it tangent_cohomology on every regime member
    real = hc.intersect
    monkeypatch.setattr(hc, "intersect", lambda e, x, y: real(e, x, y) + 2)
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    message = "chi(T_F) != 6 at e={}: table (6, 0, 0), RR 7"
    fiber = results.pop(FIBER_TANGENT)
    assert fiber.cases == 2
    assert fiber.failures == [f"e={e}: {message.format(e)}" for e in (0, 1)]
    regime = [p for p in iter_valid_params(1, 1) if p.paper_regime]
    for name, fn in verify._CHECKS:
        if fn.sweep == "regime":
            result = results.pop(name)
            assert result.cases == len(regime) == 4
            assert result.failures == [f"{p}: {message.format(p.e)}" for p in regime]
    assert all(result.ok for result in results.values())


def test_a_wrong_ell3_fails_the_uniformity_identity_through_splitting_type(
        monkeypatch, capsys):
    real = bf.ell_invariant
    monkeypatch.setattr(bf, "ell_invariant",
                        lambda cd, e, d1, r: real(cd, e, d1, r) + (d1 == 3))
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    uniformity = results.pop(UNIFORMITY)
    assert uniformity.cases == bf.grid_member_count(1, 1)
    members = islice(iter_valid_params(1, 1), verify._MAX_FAILURES)
    assert uniformity.failures == [
        *(f"{p}: expected ell(c1,c2,3,r) = 0 at {p}, r={3 * p.e + 5 + p.t}"
          for p in members),
        "... more failures suppressed",
    ]
    assert results[ELL2].ok
    assert all(result.ok for result in results.values())


def test_a_wrong_constant_term_fails_only_the_p_minus_one_identity(monkeypatch, capsys):
    # the layer's own check is bypassed, so only the P(-1) = 0 route sees it
    real = si.hilbert_polynomial
    monkeypatch.setattr(si, "hilbert_polynomial", lambda *args: real(*args)._replace(p0=2))
    assert _verify_1_1_exit_code(capsys) == 3
    results = _results_by_name(1, 1)
    p_minus_1 = results.pop(P_MINUS_1)
    assert p_minus_1.cases == bf.grid_member_count(1, 1)
    members = islice(iter_valid_params(1, 1), verify._MAX_FAILURES)
    assert p_minus_1.failures == [*(f"{p}: P(-1)=1" for p in members),
                                  "... more failures suppressed"]
    assert all(result.ok for result in results.values())


# -- the benchmark's view of verify --------------------------------------------


def test_benchmark_traces_every_identity_by_its_function_name():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    prefix = "verify.identity_s."
    traced = {metric["name"].removeprefix(prefix) for metric in spec["per_layer"]
              if metric["name"].startswith(prefix)}
    assert traced == {fn.__name__ for _name, fn in verify._CHECKS}
    assert all(fn.sweep in ("surface", "member", "regime") for _name, fn in verify._CHECKS)


def test_checks_keep_the_28_traced_identities_in_golden_order():
    # bench/reference.py counts 28 identities; a dropped or reordered one
    # must show here, not only as a benchmark failure
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    prefix = "verify.identity_s."
    traced = [metric["name"].removeprefix(prefix) for metric in spec["per_layer"]
              if metric["name"].startswith(prefix)]
    golden = (root / "tests" / "golden" / "verify_4_6_plain.txt").read_text()
    labels = [line.split("]  ", 1)[1] for line in golden.splitlines()
              if line.startswith("PASS")]
    assert len(verify._CHECKS) == len(traced) == len(labels) == 28
    assert [fn.__name__ for _name, fn in verify._CHECKS] == traced
    assert [name for name, _fn in verify._CHECKS] == labels


# -- Chow pairings ------------------------------------------------------------


def test_off_by_one_triple_fails_the_intersection_numbers_identity(monkeypatch, capsys):
    real = cr.triple
    monkeypatch.setattr(cr, "triple", lambda ctx, x, y, z: real(ctx, x, y, z) + 1)
    code = cli.main(["verify", "--e-max", "1", "--t-max", "1"])
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL")]
    assert code == 3
    assert any(line.endswith("intersection numbers match their closed forms in (d, e, b, t)")
               for line in failing)
