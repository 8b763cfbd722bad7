import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import takewhile
from pathlib import Path

import pytest
from conftest import _fresh_child, _fresh_env
from hypothesis import HealthCheck, given, settings, strategies as st

import fescroll.cli as cli
from fescroll import bundle_family as bf
from fescroll import chow_ring
from fescroll.bundle_family import grid_member_count, iter_valid_params
from fescroll.errors import ParameterError
from fescroll.surface_lattice import DivisorClass

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report -------------------------------------------------------------------


def test_report_plain(capsys):
    code, out, err = run_cli(capsys, "report", "-e", "2", "-b", "7", "-t", "0")
    assert code == 0 and err == ""
    assert "c1 = 4*C0 + 19*f" in out
    assert "c2 = 29" in out
    assert "n = 51" in out
    assert "d = 91" in out
    assert "r = 11, ell2 = -1, ell3 = 0" in out
    assert "uniform: true, splitting type (3, 1)" in out
    assert "h^i(E) = (52, 0, 0)" in out
    assert "h^i(X, L) = (52, 0, 0, 0)" in out
    assert "hilbert: dim = 2690" in out
    assert "chi(T_X) = 13" in out


def test_report_plain_off_regime(capsys):
    code, out, _ = run_cli(capsys, "report", "-e", "2", "-b", "6", "-t", "0")
    assert code == 0
    assert "hilbert: not reported" in out


def test_report_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "report", "-e", "2", "-b", "7", "-t", "0",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["params"] == {"e": 2, "b": 7, "t": 0}
    assert payload["scroll"]["n"] == 51
    assert payload["scroll"]["d"] == 91
    assert payload["scroll"]["c1"] == [4, 19]
    assert payload["scroll"]["hilbert_poly"] == [[1, 1], [65, 6], [25, 1], [91, 6]]
    assert payload["scroll"]["cohomology"]["E"]["h0"] == 52
    assert payload["uniformity"]["splitting_type"] == [3, 1]
    assert payload["hilbert"]["dim_component"] == 2690
    assert payload["hilbert"]["codim_scroll_locus"] == 1
    assert len(payload["checks"]["passed"]) == 6


def test_report_csv(capsys):
    code, out, _ = run_cli(capsys, "report", "-e", "2", "-b", "7", "-t", "0",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("e,b,t,n,d,c1_a,c1_c,c2,r,ell2,ell3,h0E,"
                        "paper_regime,dim,codim")
    assert lines[1] == "2,7,0,51,91,4,19,29,11,-1,0,52,true,2690,1"


def test_report_csv_off_regime_blanks(capsys):
    code, out, _ = run_cli(capsys, "report", "-e", "2", "-b", "6", "-t", "0",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1] == "2,6,0,49,86,4,18,26,11,-2,0,50,false,,"


def test_report_invalid_params(capsys):
    code, out, err = run_cli(capsys, "report", "-e", "0", "-b", "4", "-t", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err and "b < 2e+4+t = 4" in err


# -- uniformity ---------------------------------------------------------------


def test_uniformity_plain_and_csv(capsys):
    code, out, _ = run_cli(capsys, "uniformity", "-e", "2", "-b", "7", "-t", "0")
    assert code == 0
    assert "r = 11" in out and "uniform: true" in out
    code, out, _ = run_cli(capsys, "uniformity", "-e", "2", "-b", "7", "-t", "0",
                           "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "e,b,t,r,ell2,ell3,split_0,split_1,uniform"
    assert lines[1] == "2,7,0,11,-1,0,3,1,true"


# -- cohomology ---------------------------------------------------------------


def test_cohomology_plain(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "-e", "0", "-a", "-2", "-c", "0")
    assert code == 0
    assert "(0, 1, 0)" in out and "chi = -1" in out


def test_cohomology_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "-e", "2", "-a", "3", "-c", "11",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == ["e,a,c,h0,h1,h2,chi", "2,3,11,36,0,0,36"]
    code, out, _ = run_cli(capsys, "cohomology", "-e", "2", "-a", "3", "-c", "11",
                           "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "e": 2, "class": [3, 11],
        "table": {"h0": 36, "h1": 0, "h2": 0, "chi": 36},
    }


def test_cohomology_invalid_surface(capsys):
    code, _, err = run_cli(capsys, "cohomology", "-e", "-1", "-a", "0", "-c", "0")
    assert code == 1
    assert "e >= 0" in err


# -- hilbpoly -----------------------------------------------------------------


def test_hilbpoly_outputs(capsys):
    code, out, _ = run_cli(capsys, "hilbpoly", "-e", "2", "-b", "7", "-t", "0")
    assert code == 0
    assert out.strip() == "P(m) = 1 + (65/6)*m + 25*m^2 + (91/6)*m^3"
    code, out, _ = run_cli(capsys, "hilbpoly", "-e", "2", "-b", "7", "-t", "0",
                           "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "e,b,t,c0_num,c0_den,c1_num,c1_den,c2_num,c2_den,c3_num,c3_den"
    assert lines[1] == "2,7,0,1,1,65,6,25,1,91,6"


# -- hilbert ------------------------------------------------------------------


def test_hilbert_default_b(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-e", "0", "-t", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"e": 0, "b": 5, "t": 2}
    assert payload["n"] == 45 and payload["d"] == 79
    assert payload["chiN"] == payload["dim_component"] == 2102
    assert payload["hTX"] == [13, 0, 0, 0]
    assert payload["codim_scroll_locus"] == 0
    assert all(payload["flags"].values())
    assert "chiN_note" not in payload


def test_hilbert_gated_exit_2(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-e", "3", "-t", "0")
    assert code == 2
    assert "hypotheses not satisfied: paper_regime, v1" in out
    assert "chi(N) = 3707" in out
    assert "euler characteristic only" in out
    assert "not reported" in out


def test_hilbert_forced_b_gated_json(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-e", "2", "-t", "0",
                           "--force-b", "6", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["chiN"] == 2482
    assert "euler characteristic only" in payload["chiN_note"]
    for key in ("dim_component", "hN", "hTX", "chiTX", "codim_scroll_locus"):
        assert payload[key] is None
    assert payload["flags"] == {
        "paper_regime": False, "v1": True, "v2": False, "v3": True,
    }


def test_hilbert_gated_csv_blank_cells(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-e", "3", "-t", "0",
                           "--format", "csv")
    assert code == 2
    lines = out.strip().split("\n")
    assert lines[0] == "e,b,t,n,d,chiN,dim,codim,chiTX,paper_regime,v1,v2,v3"
    assert lines[1] == "3,9,0,60,109,3707,,,,false,false,true,true"


def test_hilbert_full_csv(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-e", "2", "-t", "0",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1] == "2,7,0,51,91,2690,2690,1,13,true,true,true,true"


# -- table --------------------------------------------------------------------


def test_table_small_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "e,b,t,n,d,c2,r,ell2,ell3,h0E,paper_regime,dim,codim"
    assert len(lines) == 5  # header + b in {0, 1, 2, 3}
    assert lines[1] == "0,0,0,27,40,8,5,-4,0,28,false,,"
    assert lines[4] == "0,3,0,33,55,17,5,-1,0,34,true,1142,0"


def test_table_plain_equals_csv(capsys):
    _, plain, _ = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0")
    _, as_csv, _ = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0",
                           "--format", "csv")
    assert plain == as_csv


def test_table_regime_only(capsys):
    code, out, _ = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0",
                           "--paper-regime-only", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1] == "0,3,0,33,55,17,5,-1,0,34,true,1142,0"


def test_table_frozen_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--e-max", "2", "--t-max", "0",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[-1] == "2,7,0,51,91,29,11,-1,0,52,true,2690,1"


def test_table_json_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert rows[0]["dim"] is None and rows[0]["paper_regime"] is False
    assert rows[3]["dim"] == 1142 and rows[3]["codim"] == 0


def test_table_rejects_negative_bounds(capsys):
    code, _, err = run_cli(capsys, "table", "--e-max", "-1", "--t-max", "0")
    assert code == 1
    assert "--e-max" in err


def test_grid_member_count_closed_form():
    for e_max in range(7):
        for t_max in range(7):
            members = list(iter_valid_params(e_max, t_max))
            assert grid_member_count(e_max, t_max) == len(members)
    assert grid_member_count(8, 12) == 1638


@pytest.mark.parametrize("command", ["table", "verify"])
def test_grid_above_member_bound_exits_1(capsys, command):
    code, out, err, seconds = _timed_cli(capsys, command, "--e-max", "1000000",
                                         "--t-max", "1000000")
    assert code == 1 and out == ""
    assert seconds < HUGE_WALL_S
    assert "Traceback" not in err
    assert err == (
        f"error: --e-max 1000000 --t-max 1000000 spans "
        f"{grid_member_count(10**6, 10**6)} members, "
        f"above the bound of {cli.MAX_GRID_MEMBERS}\n"
    )


def test_grid_member_bound_is_inclusive(capsys, monkeypatch):
    # (0, 0) has 4 members and (0, 1) has 9
    monkeypatch.setattr(cli, "MAX_GRID_MEMBERS", 4)
    assert run_cli(capsys, "table", "--e-max", "0", "--t-max", "0")[0] == 0
    code, _, err = run_cli(capsys, "table", "--e-max", "0", "--t-max", "1")
    assert code == 1
    assert "spans 9 members, above the bound of 4" in err


@pytest.mark.parametrize("command", ["table", "verify"])
def test_grid_with_unprintable_member_count_exits_1(capsys, command):
    # the grid has about 6000 digits of members, more than str() prints
    bound = "9" * 3000
    code, out, err = run_cli(capsys, command, "--e-max", bound, "--t-max", bound)
    assert code == 1 and out == ""
    assert err == (
        f"error: --e-max {bound} --t-max {bound} spans at least "
        f"10^{sys.get_int_max_str_digits()} members, "
        f"above the bound of {cli.MAX_GRID_MEMBERS}\n"
    )


# -- verify -------------------------------------------------------------------


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--e-max", "0", "--t-max", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "28 identities checked, 28 passed, 0 failed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # corrupt the canonical class; the adjunction identity must catch it
    monkeypatch.setattr(
        "fescroll.surface_lattice.canonical_class",
        lambda e: DivisorClass(2, e + 2),
    )
    code, out, _ = run_cli(capsys, "verify", "--e-max", "0", "--t-max", "0")
    assert code == 3
    assert "FAIL" in out
    assert "K_{F_e}" in out
    summary = out.strip().split("\n")[-1]
    match = re.fullmatch(r"(\d+) identities checked, (\d+) passed, (\d+) failed", summary)
    assert match, summary
    assert int(match.group(3)) > 0


@pytest.mark.parametrize("argv", [
    ("verify", "--e-max", "1", "--t-max", "1"),
    ("report", "-e", "2", "-b", "7", "-t", "0"),
])
def test_mixed_degree_product_exits_3_without_traceback(capsys, monkeypatch, argv):
    # x*y gains x.xi*y.h1 points, so chern_TX hands _read_numbers a c2(T_X)
    # that is not a curve class: a wrong formula, not a usage error
    real = chow_ring.multiply
    monkeypatch.setattr(chow_ring, "multiply", lambda ctx, x, y: real(ctx, x, y)
                        + chow_ring.ChowClass(pt=x.xi * y.h1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "Traceback" not in out + err
    assert "not a curve class" in out + err


# -- huge coefficients ----------------------------------------------------------

HUGE_WALL_S = 2.0


def _timed_cli(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    return code, out, err, time.perf_counter() - start


# (h0, h1, h2, chi) of D = a*C0 + c*f, worked by hand.  chi = 1 + D.(D-K)/2
# with D.(D-K) = -e*a*(a+2) + a*(c+e+2) + c*(a+2), and h1 = h0 + h2 - chi.
# e=2, a=10^9, c=5: J = min(a, c // e) = 2, so h0 = 3*6 - 2*3 = 12; h2 = 0
# because K-D has a negative C0 coefficient; D.(D-K) = -2*10^18 + 10^10 + 10.
# e=3, a=-10^9, c=7: h0 = 0; K-D = (10^9-2)*C0 - 12*f has a negative f
# coefficient, so h2 = 0; D.(D-K) = -3*10^18 - 13*10^9 + 14.
HUGE_COHOMOLOGY = {
    (2, 10**9, 5): (12, 10**18 - 5 * 10**9 + 6, 0, -(10**18) + 5 * 10**9 + 6),
    (3, -(10**9), 7): (0, 15 * 10**17 + 65 * 10**8 - 8, 0, -15 * 10**17 - 65 * 10**8 + 8),
}


@pytest.mark.parametrize("e,a,c", HUGE_COHOMOLOGY)
def test_cohomology_huge_coefficient(capsys, e, a, c):
    code, out, err, seconds = _timed_cli(capsys, "cohomology", "-e", str(e), "-a", str(a),
                                         "-c", str(c), "--format", "csv")
    assert code == 0 and err == ""
    assert seconds < HUGE_WALL_S
    row = [int(cell) for cell in out.strip().split("\n")[1].split(",")]
    assert row == [e, a, c, *HUGE_COHOMOLOGY[e, a, c]]


def test_report_huge_t(capsys):
    e, b, t = 0, 5, 10**9
    code, out, err, seconds = _timed_cli(capsys, "report", "-e", str(e), "-b", str(b),
                                         "-t", str(t), "--format", "csv")
    assert code == 0 and err == ""
    assert seconds < HUGE_WALL_S
    header, row = (line.split(",") for line in out.strip().split("\n"))
    got = dict(zip(header, row))
    assert int(got["n"]) == 5 * e + 2 * b + 4 * t + 27
    assert int(got["d"]) == 8 * e + 5 * b + 7 * t + 40
    assert int(got["r"]) == 3 * e + 5 + t


# int() reads at most 4300 digits, and str() writes no more, so an input at
# that limit can still give an output integer the interpreter cannot print
LIMIT_NINES = "9" * 4300


@pytest.mark.parametrize("argv", [
    ["report", "-e", "0", "-b", "5", "-t", LIMIT_NINES, "--format", "csv"],
    ["uniformity", "-e", "0", "-b", "5", "-t", LIMIT_NINES],
    ["hilbpoly", "-e", "0", "-b", "5", "-t", LIMIT_NINES, "--format", "json"],
    ["hilbert", "-e", "0", "-t", LIMIT_NINES],
    ["cohomology", "-e", "1", "-a", LIMIT_NINES, "-c", "5"],
], ids=lambda argv: argv[0])
def test_unprintable_output_exits_1(capsys, argv):
    code, out, err, seconds = _timed_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert seconds < HUGE_WALL_S
    assert err == ("error: an output integer has more than 4300 digits, "
                   "the interpreter's limit for printing an integer\n")


# -- plumbing -----------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(capsys, "report", "-e", "2", "-b", "7", "-t", "0",
                           "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert "2,7,0,51,91,4,19,29,11,-1,0,52,true,2690,1" in text


def test_out_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "t.csv"
    code, out, err = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0",
                             "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_out_path_with_nul_exits_1(capsys):
    # no shell passes a NUL byte, but a caller of main can; open() refuses it
    code, out, err = run_cli(capsys, "table", "--e-max", "0", "--t-max", "0", "--out", "a\0b")
    assert (code, out) == (1, "")
    assert err == "error: cannot write a\0b: embedded null byte\n"


def test_console_module_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fescroll", "report", "-e", "2", "-b", "7", "-t", "0"],
        capture_output=True,
        text=True,
        env=_fresh_env(),
    )
    assert proc.returncode == 0
    assert "n = 51" in proc.stdout


def test_closed_stdout_exits_without_traceback():
    # the JSON table of (8, 12) is about 390 kB, far beyond a pipe buffer,
    # so the child is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "fescroll", "table", "--e-max", "8", "--t-max", "12",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in {0, 1, 2, 3}
    assert "Traceback" not in err


def _report_to(stdout) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fescroll", "report", "-e", "2", "-b", "7", "-t", "0"],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=_fresh_env(), timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_stdout_exits_1_naming_the_reason():
    with open("/dev/full", "w") as full:
        proc = _report_to(full)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_stdout_pipe_without_reader_exits_1_naming_the_reason():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _report_to(write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


def test_huge_cohomology_output_exits_1_without_traceback():
    nines = "9" * 2500
    proc = subprocess.run(
        [sys.executable, "-m", "fescroll", "cohomology", "-e", nines, "-a", "-" + nines,
         "-c", "5"],
        capture_output=True,
        text=True,
        env=_fresh_env(),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_unknown_command_exits_1(capsys):
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 1 and out == ""
    assert err == ("error: fescroll: unknown command 'no-such-command'; choose one of "
                   "report, uniformity, cohomology, hilbpoly, hilbert, table, verify\n")


# -- parsing ------------------------------------------------------------------
# cli._parse reads argv off cli._COMMANDS: a command, then its flags, each
# spelled out in full and given at most once, each but a switch followed by
# its value.  Every other argv is a usage error: exit 1 and a message
# "error: <command>: ..." that names the token at fault.

COMMANDS = ["report", "uniformity", "cohomology", "hilbpoly", "hilbert", "table", "verify"]
FLAGS = [
    "-e", "-b", "-t", "-a", "-c", "--e-max", "--t-max", "--force-b",
    "--paper-regime-only", "--paper", "--format", "--fo", "--f", "--out",
    "--format=json", "--e-max=1", "-e2", "-b7", "-t0", "--", "-", "-h", "--help",
    "--he", "--bogus",
]
WORDS = ["plain", "json", "csv", "xml", "x", "3e5", "o.txt", "bogus"]

PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["rep"], ["--", "report"],
    ["report"], ["report", "-h"], ["verify", "--help"], ["table", "--he"],
    ["report", "report"],
    ["report", "-e", "2", "-b", "7", "-t", "0"],
    ["report", "-e2", "-b7", "-t0", "--format=json"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "--fo", "csv"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "--format", "xml"],
    ["report", "-e", "x", "-b", "1", "-t", "0"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "extra"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "--bogus"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "--", "-e", "3"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "-e", "3"],
    ["report", "--", "-e", "2"],
    ["uniformity", "-e", "0", "-b", "5", "-t", "1", "--out", "o.txt"],
    ["cohomology", "-e", "2", "-a", "-3", "-c", "5"],
    ["cohomology", "-e", "2", "-a", "300000", "-c", "5", "--format", "json"],
    ["cohomology", "-e", "2", "-a", "1"],
    ["hilbpoly", "-e", "1", "-b", "4", "-t", "2", "--format", "csv"],
    ["hilbert", "-e", "1", "-t", "0"],
    ["hilbert", "-e", "1", "-t", "0", "--force-b", "4"],
    ["hilbert", "-e", "1", "-t", "0", "--force", "4"],
    ["hilbert", "-e", "1", "-t", "0", "--f", "4"],
    ["hilbert", "-e", "1", "-t", "0", "-b", "4"],
    ["table", "--e-max", "1", "--t-max", "1", "--paper"],
    ["table", "--e-max=1", "--t-max=1", "--paper-regime-only", "--format", "json"],
    ["table", "--e-max", "1"],
    ["verify", "--e-max", "1", "--t-max", "1"],
    ["verify", "--e-max", "1", "--t-max", "1", "--format", "json"],
    ["verify", "--e", "1", "--t-max", "1", "--out", "v.txt"],
]

# tokens where int(), str.isdigit() and a test for a negative number may disagree
EDGE_TOKENS = [
    "-5\n", "-\u0663", "\u0663", " 3", "+3", "3_0", "", "-x y", "5" * 5000,
    "9" * 4300, "-" + "9" * 4300, "9" * 4301, "-0", "-", "--5", "-1.5", "1e3",
    "0x10", "\u00b2", "-\u00b2",
]
COHOMOLOGY = ["cohomology", "-e", "2", "-a", "3", "-c", "5"]
EDGE_CORPUS = [
    *(["cohomology", "-e", "2", "-a", token, "-c", "5"] for token in EDGE_TOKENS),
    *([*COHOMOLOGY, "--out", token] for token in EDGE_TOKENS),
    *([*COHOMOLOGY, "--format", token] for token in EDGE_TOKENS),
    [*COHOMOLOGY, "-a", "4"],
    [*COHOMOLOGY, "--format", "csv", "--format", "json"],
    ["table", "--e-max", "1", "--t-max", "1", "--paper-regime-only", "--paper-regime-only"],
    [*COHOMOLOGY, "--"],
    ["cohomology", "--", "-e", "2", "-a", "3", "-c", "5"],
    [*COHOMOLOGY, "--out"],
]


def _usage_message(argv):
    """The message of the usage error argv gives, or None when argv parses."""
    try:
        cli._parse(list(argv))
    except ParameterError as exc:
        assert exc.reason == "usage"
        return str(exc)
    return None


@pytest.mark.parametrize("argv", PARSE_CORPUS + EDGE_CORPUS, ids=repr)
def test_corpus_parses_or_exits_1_naming_the_token(capsys, argv):
    message = _usage_message(argv)
    if message is None:
        return
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    command = argv[0] if argv and argv[0] in cli._COMMANDS else "fescroll"
    problem = message.removeprefix(f"{command}: ")
    # a token that is there is named as repr() writes it; one that is not, as missing
    assert problem != message and (problem.startswith("missing ")
                                   or any(repr(token) in problem for token in argv)), message


USAGE_ERRORS = [
    (["report", "-e", "x", "-b", "1", "-t", "0"],
     "-e takes an integer of at most 4300 digits, not 'x'"),
    (["verify", "--e-max", "1", "--t-max", "1", "--format", "json"],
     "unknown argument '--format'; verify takes --e-max, --t-max, --out"),
    (["report", "-e", "2", "-b", "7", "-t", "0", "--force-b", "3"],
     "unknown argument '--force-b'; report takes -e, -b, -t, --format, --out"),
    (["report", "-e", "2", "-b", "7", "-t", "0", "extra"],
     "unknown argument 'extra'; report takes -e, -b, -t, --format, --out"),
    (["report", "-e2", "-b7", "-t0"],
     "unknown argument '-e2'; report takes -e, -b, -t, --format, --out"),
    (["cohomology", "-e", "2", "-a", "3", "-c", "5", "-a", "4"], "repeated flag '-a'"),
    (["cohomology", "-e", "2", "-a", "3", "-c", "5", "--format", "xml"],
     "--format takes plain|json|csv, not 'xml'"),
    (["cohomology", "-e", "2", "-a", "3", "-c", "5", "--out"], "missing the value of --out"),
    (["cohomology", "-e", "2", "-a", "3", "-c", "5", "--out", "-x"],
     "--out needs a value, not '-x'"),
    (["table", "--e-max", "1"], "missing --t-max"),
    # an empty path is no path: the output must not fall back to stdout
    (["report", "-e", "2", "-b", "7", "-t", "0", "--out", ""], "--out takes a path, not ''"),
    (["verify", "--e-max", "0", "--t-max", "0", "--out", ""], "--out takes a path, not ''"),
]


@pytest.mark.parametrize("argv, problem", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_1_naming_the_token(capsys, argv, problem):
    assert run_cli(capsys, *argv) == (1, "", f"error: {argv[0]}: {problem}\n")


def test_no_command_exits_1(capsys):
    assert run_cli(capsys) == (1, "", "error: fescroll: missing command; choose one of "
                                      "report, uniformity, cohomology, hilbpoly, hilbert, "
                                      "table, verify\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    code, out, err = run_cli(capsys, flag)
    assert code == 0 and err == ""
    for name, (help_text, _flags) in cli._COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(help_text)}$", out, re.M), name


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_every_flag(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0 and err == ""
    usage = out.split("\n")[0].split()
    assert usage[:3] == ["usage:", "fescroll", command]
    flags = [*cli._COMMANDS[command][1]]
    assert [word.strip("[]") for word in usage if word.lstrip("[").startswith("-")] == flags
    # -h in place of a later flag asks for the same help
    assert run_cli(capsys, command, flags[0], "1", "-h") == (code, out, err)


# canonical valid argv: every flag of a command spelled out once, in any order
INTS = st.one_of(st.integers(-50, 50), st.integers(-(10**4300 - 1), 10**4300 - 1)).map(str)
PATHS = st.text(min_size=1, max_size=8).filter(lambda path: not path.startswith("-"))
OUTPUT = {"--format": st.sampled_from(["plain", "json", "csv"]), "--out": PATHS}
MEMBER = {"-e": INTS, "-b": INTS, "-t": INTS}
GRID = {"--e-max": INTS, "--t-max": INTS}
VALID = {  # command -> (required flags, optional flags); None: takes no value
    "report": (MEMBER, OUTPUT),
    "uniformity": (MEMBER, OUTPUT),
    "cohomology": ({"-e": INTS, "-a": INTS, "-c": INTS}, OUTPUT),
    "hilbpoly": (MEMBER, OUTPUT),
    "hilbert": ({"-e": INTS, "-t": INTS}, {"--force-b": INTS, **OUTPUT}),
    "table": (GRID, {"--paper-regime-only": None, **OUTPUT}),
    "verify": (GRID, {"--out": PATHS}),
}
DEFAULTS = {"--format": "plain", "--paper-regime-only": False}


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    required, optional = VALID[command]
    values = {**required, **optional}
    flags = [*required, *(flag for flag in optional if draw(st.booleans()))]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if values[flag] is not None:
            argv.append(draw(values[flag]))
    return argv


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


@settings(max_examples=300, deadline=None)
@given(valid_argv())
def test_valid_argv_parses_to_the_call_it_spells(argv):
    command, tokens = argv[0], iter(argv[1:])
    required, optional = VALID[command]
    values = {**required, **optional}
    expected = {"command": command, "func": getattr(cli, f"cmd_{command}"),
                **{_dest(flag): DEFAULTS.get(flag) for flag in values}}
    for flag in tokens:
        value = True if values[flag] is None else next(tokens)
        expected[_dest(flag)] = int(value) if values[flag] is INTS else value
    assert vars(cli._parse(argv)) == expected


# every flag, malformed flags, values out of range and integers past what
# int() reads (4301 digits) or what str() writes back (4300 digits)
FUZZ_TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, "bogus", *FLAGS, *WORDS, "9" * 4301, "-" + "9" * 4300]),
    st.integers(-5, 50).map(str),
)
EXTREME_B = st.one_of(st.integers(-(10**4300 - 1), 10**4300 - 1),
                      st.sampled_from([10**4300 - 1, -(10**4300 - 1)])).map(str)
FUZZ_ARGV = st.one_of(
    st.tuples(st.sampled_from([*COMMANDS, "bogus"]), st.lists(FUZZ_TOKENS, max_size=10))
    .map(lambda pair: [pair[0], *pair[1]]),
    st.lists(FUZZ_TOKENS, max_size=10),
    st.tuples(st.integers(-5, 50), st.integers(-5, 50), EXTREME_B)
    .map(lambda etb: ["hilbert", "-e", str(etb[0]), "-t", str(etb[1]), "--force-b", etb[2]]),
    valid_argv(),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FUZZ_ARGV)
def test_fuzzed_argv_keeps_the_exit_code_contract(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(cli, "MAX_GRID_MEMBERS", 50)  # keeps every drawn verify short
    monkeypatch.chdir(tmp_path)  # where --out writes
    code, out, err = run_cli(capsys, *argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ")


def test_cli_import_leaves_out_dataclass_and_json_machinery():
    proc = _fresh_child(
        "import sys\n"
        "import fescroll.cli\n"
        "names = ('argparse', 'dataclasses', 'gettext', 'inspect', 'json', 'locale',\n"
        "         'fescroll.verify')\n"
        "print(sorted(name for name in names if name in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    # bench/tracer.py reads sys.modules["fescroll.verify"], so the module stays
    # registered there; it is not run until the verify command reads it
    assert proc.stdout == "['fescroll.verify']\n"


def test_only_the_verify_command_compiles_verify_and_poly(tmp_path):
    # no bytecode is read or written, so every module imported is compiled
    # from source, and the audit hook sees each compilation
    calls = [argv for command in cli._COMMANDS if command != "verify"
             for argv in _sample_calls(command)[:1]]
    verify_call = ["verify", "--e-max", "0", "--t-max", "0"]
    proc = subprocess.run([sys.executable, "-c", (
        "import contextlib, io, os, sys\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile'\n"
        "                 and compiled.append(os.path.basename(str(args[1]))))\n"
        "import fescroll.cli as cli\n"
        "watched = ('verify.py', 'poly.py')\n"
        "def compiled_since(mark):\n"
        "    return sorted(name for name in compiled[mark:] if name in watched)\n"
        "steps, mark = [], 0\n"
        f"for argvs in ({calls!r}, [{verify_call!r}], [{verify_call!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [cli.main(argv) for argv in argvs]\n"
        "    steps.append((codes, compiled_since(mark)))\n"
        "    mark = len(compiled)\n"
        "print(steps)\n"
    )], capture_output=True, text=True, timeout=60, env={
        **_fresh_env(), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(tmp_path),
    })
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [
        ([0] * len(calls), []),
        ([0], ["poly.py", "verify.py"]),
        ([0], []),
    ]
    assert {argv[0] for argv in calls} == set(cli._COMMANDS) - {"verify"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("code, printed", [
    # an importer of verify before cli shares its module with cli
    ("import sys\nimport fescroll.verify as first\nimport fescroll.cli\n"
     "print(fescroll.cli.verify is sys.modules['fescroll.verify'] is fescroll.verify is first)\n",
     "True"),
    ("import fescroll.cli, fescroll.verify\n"
     "print(fescroll.verify.run_all is fescroll.cli.verify.run_all)\n", "True"),
    ("import fescroll.verify\nprint(len(fescroll.verify._CHECKS))\n", "28"),
])
def test_verify_imports_as_one_module_with_or_before_cli(code, printed):
    proc = _fresh_child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"


def test_cli_import_freezes_what_it_leaves_alive():
    # with the freeze removed, grid-table call_p50_ms went 57.8 -> 58.8 ms,
    # worse in 4 of 4 benchmark pairs: later collections rescan the modules
    proc = _fresh_child(
        "import gc\n"
        "import fescroll.cli\n"
        "print(gc.get_freeze_count() > 0)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


VALID_CALLS = [
    [command, *flags, "--format", fmt]
    for command, flags in [
        ("report", ["-e", "2", "-b", "7", "-t", "0"]),
        ("uniformity", ["-e", "2", "-b", "7", "-t", "0"]),
        ("cohomology", ["-e", "2", "-a", "3", "-c", "5"]),
        ("hilbpoly", ["-e", "2", "-b", "7", "-t", "0"]),
        ("hilbert", ["-e", "2", "-t", "0"]),
    ]
    for fmt in ("plain", "json", "csv")
]


def test_valid_call_imports_no_module():
    # json.dumps would import the json package
    proc = _fresh_child(
        "import sys\n"
        "import fescroll.cli as cli\n"
        "before = set(sys.modules)\n"
        f"codes = [cli.main(argv) for argv in {VALID_CALLS!r}]\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(max(codes))\n"
    )
    assert proc.returncode == 0 and '"dim_component": 2690' in proc.stdout
    assert proc.stderr == ""


def test_valid_calls_leave_out_fractions_and_decimal():
    # P(m) prints from integer pairs, so no rational type is imported
    proc = _fresh_child(
        "import sys\n"
        "import fescroll.cli as cli\n"
        f"codes = [cli.main(argv) for argv in {VALID_CALLS!r}]\n"
        "sys.stderr.write(' '.join(name for name in ('fractions', 'decimal', 'numbers')\n"
        "                          if name in sys.modules))\n"
        "sys.exit(max(codes))\n"
    )
    assert proc.returncode == 0 and "P(m) = 1 + (65/6)*m + 25*m^2 + (91/6)*m^3" in proc.stdout
    assert proc.stderr == ""


# -- json writer ----------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*_json.txt")), ids=lambda p: p.stem)
def test_json_text_matches_json_dumps_on_goldens(path):
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert cli._json_text(payload) == json.dumps(payload, indent=2) == text[:-1]


json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_payloads)
def test_json_text_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("text", ["", "plain", 'a "quote"', "back\\slash", "tab\tnl\n",
                                  "\x00\x1f\x7f", "caf\u00e9", "\U0001f600", "\ud800"])
def test_json_text_escapes_strings_as_json_dumps(text):
    payload = {text: [text, {"k": text}], "empty": [{}, []]}
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("argv", [
    ["cohomology", "-e", "2", "-a", "3", "-c", "5", "--format", "json"],
    ["report", "-e", "2", "-b", "7", "-t", "0", "--format", "json"],
], ids=lambda argv: argv[0])
def test_warm_json_call_leaves_no_cyclic_garbage(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0  # warm: every first-call cache is filled
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.main(argv) == 0
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert garbage == []


# -- r and ell on every path --------------------------------------------------
# is_uniform checks r, ell2, ell3 and the splitting type where it makes them,
# so a fault in any of them stops every command that prints them, in every
# format, before it prints anything

SAMPLE_VALUES = {"-e": "2", "-b": "7", "-t": "0", "-a": "3", "-c": "5",
                 "--e-max": "1", "--t-max": "1"}

RESTRICTION_FAULTS = {
    "ell at d1=2 off by one": (
        "ell_invariant", lambda real: lambda ctx, d1, r: real(ctx, d1, r) + (d1 == 2)),
    "ell at d1=3 off by one": (
        "ell_invariant", lambda real: lambda ctx, d1, r: real(ctx, d1, r) + (d1 == 3)),
    "r off by one": ("invariant_r", lambda real: lambda bundle, d1: real(bundle, d1) + 1),
}


def _sample_calls(command: str) -> list[list[str]]:
    """One call of command per format it takes, its required flags set from SAMPLE_VALUES."""
    flags = cli._COMMANDS[command][1]
    argv = [command]
    for flag, spec in flags.items():
        if spec.get("required"):
            argv += [flag, SAMPLE_VALUES[flag]]
    formats = flags["--format"]["choices"] if "--format" in flags else []
    return [[*argv, "--format", fmt] for fmt in formats] or [argv]


@pytest.fixture(scope="module")
def ell2_calls() -> list[list[str]]:
    """Every sample call of each command whose unfaulted output prints ell2."""
    calls = []
    for command in cli._COMMANDS:
        samples = _sample_calls(command)
        outputs = io.StringIO()
        with contextlib.redirect_stdout(outputs), contextlib.redirect_stderr(io.StringIO()):
            for argv in samples:
                cli.main(argv)
        if "ell2" in outputs.getvalue():
            calls += samples
    return calls


@pytest.mark.parametrize("fault", RESTRICTION_FAULTS)
def test_a_fault_in_r_or_ell_stops_every_command_that_prints_them(
        monkeypatch, capsys, ell2_calls, fault):
    assert {argv[0] for argv in ell2_calls} >= {"report", "uniformity", "table"}
    name, corrupt = RESTRICTION_FAULTS[fault]
    monkeypatch.setattr(bf, name, corrupt(getattr(bf, name)))
    results = {" ".join(argv): run_cli(capsys, *argv)[:2] for argv in ell2_calls}
    assert results == dict.fromkeys(results, (3, ""))


# -- the Chern data on every path -----------------------------------------------
# bundle_family.chern cross-checks c1 and c2 over the three presentations
# where it makes the record every later layer reads, so a fault in one
# presentation stops every command

CHERN = "c1 = A+B = L+M = 4*C0+(b+3e+6+t)*f, c2 = A.B = L.M+2 = 3b+8+t"


def test_a_fault_in_one_chern_presentation_stops_every_command(monkeypatch, capsys):
    real = bf.extension_data
    monkeypatch.setattr(bf, "extension_data", lambda params: real(params)._replace(w_len=3))
    monkeypatch.setattr(cli.verify, "_MAX_FAILURES", 1000)
    code, out, _ = run_cli(capsys, "verify", "--e-max", "1", "--t-max", "1")
    assert code == 3
    lines = out.splitlines()
    start = lines.index(f"FAIL  [{grid_member_count(1, 1):6d} cases]  {CHERN}") + 1
    details = list(takewhile(lambda line: line.startswith("      "), lines[start:]))
    assert details == [
        f"      {p}: c1 = A+B = L+M = 4*C0+(b+3e+6+t)*f and c2 = A.B = L.M+2 = 3b+8+t "
        f"violated at {p}" for p in iter_valid_params(1, 1)]
    for argv in (["report", "-e", "2", "-b", "7", "-t", "0"],
                 ["table", "--e-max", "1", "--t-max", "1"]):
        assert run_cli(capsys, *argv)[:2] == (3, "")
