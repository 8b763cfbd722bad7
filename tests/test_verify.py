"""Internals of the verify battery: the r oracle, the sample draws, the recorder,
and the identity that a broken Chow pairing fails."""

import math
import random

import pytest

import fescroll.cli as cli
from fescroll import chow_ring as cr
from fescroll import surface_lattice as sl
from fescroll import verify
from fescroll.bundle_family import invariant_r, validate_params
from fescroll.errors import ConsistencyError

# -- r oracle ----------------------------------------------------------------


@pytest.mark.parametrize("d1", [1, 2, 3])
def test_r_oracle_calls_cohomology_logarithmically(monkeypatch, d1):
    p = validate_params(2, 3007, 3000)
    span = 3 * p.e + 6 + p.t + abs(p.b) + 4
    calls = []
    real = sl.cohomology

    def counting(s, d):
        calls.append(d)
        return real(s, d)

    monkeypatch.setattr(sl, "cohomology", counting)
    assert verify._r_by_scan(p, d1) == invariant_r(p, d1) == 3 * p.e + 5 + p.t
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
        verify._r_by_scan(validate_params(2, 7, 0), 3)


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
    rec = verify._Recorder()
    for _ in range(100):
        rec.case(True, _detail_not_called)
    assert rec.cases == 100 and rec.failures == []


def test_recorder_caps_failures_and_formats_only_kept_ones():
    rec = verify._Recorder()
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
    rec = verify._Recorder()
    rec.case(False, "plain")
    rec.case(False, lambda: "lazy")
    assert rec.failures == ["plain", "lazy"]


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
