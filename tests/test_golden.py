"""Byte-for-byte CLI output against files under tests/golden/.

Each case is one CLI call: its stdout must equal tests/golden/<name>.txt
exactly and its exit code must match.  The verify_fault_* cases run the
battery with one engine function corrupted, so they pin which identities
a fault breaks, their case counts and their first failure lines.  After
an intentional output change, rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path
from unittest import mock

import pytest

import fescroll.cli as cli
from fescroll import bundle_family, chow_ring

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("plain", "json", "csv")
MEMBERS = [(2, 7, 0), (0, 3, 0), (1, 4, 3), (3, 5, 2), (5, 20, 40)]


def _sym_chi_off_at_5(real):
    # chi(Sym^5 E) one too large when B = C0 + 3f (b = 2), as P(m) sees it
    def sym_chi(e, bundle, m):
        return real(e, bundle, m) + (m == 5 and bundle.B.c == 3)
    return sym_chi


def _multiply_reads_h2_for_h1(real):
    # the pt' row subtracts e*(x.h1*y.h2) where C0'^2 = -e*pt' gives e*(x.h1*y.h1)
    def multiply(ctx, x, y):
        return real(ctx, x, y) + chow_ring.ChowClass(p=ctx.e * x.h1 * (y.h1 - y.h2))
    return multiply


FAULTS = {
    "sym_chi": (bundle_family, "sym_chi", _sym_chi_off_at_5),
    "multiply": (chow_ring, "multiply", _multiply_reads_h2_for_h1),
}

CASES = [
    *((f"report_{e}_{b}_{t}_{fmt}",
       ["report", "-e", str(e), "-b", str(b), "-t", str(t), "--format", fmt], 0, None)
      for e, b, t in MEMBERS for fmt in FORMATS),
    *((f"{command}_{e}_{b}_{t}_{fmt}",
       [command, "-e", str(e), "-b", str(b), "-t", str(t), "--format", fmt], 0, None)
      for command in ("uniformity", "hilbpoly") for e, b, t in ((2, 7, 0), (3, 5, 2))
      for fmt in FORMATS),
    *((f"cohomology_{e}_{a}_{c}_{fmt}".replace("-", "m"),
       ["cohomology", "-e", str(e), "-a", str(a), "-c", str(c), "--format", fmt], 0, None)
      for e, a, c in ((2, -3, 5), (0, -1, 4)) for fmt in FORMATS),
    *((f"hilbert_2_0_{fmt}", ["hilbert", "-e", "2", "-t", "0", "--format", fmt], 0, None)
      for fmt in FORMATS),
    *((f"hilbert_2_0_force_b_6_{fmt}",
       ["hilbert", "-e", "2", "-t", "0", "--force-b", "6", "--format", fmt], 2, None)
      for fmt in FORMATS),
    *((f"table_2_2_{fmt}",
       ["table", "--e-max", "2", "--t-max", "2", "--format", fmt], 0, None)
      for fmt in FORMATS),
    *((f"table_1_1_regime_{fmt}",
       ["table", "--e-max", "1", "--t-max", "1", "--paper-regime-only", "--format", fmt],
       0, None)
      for fmt in FORMATS),
    ("verify_1_1_plain", ["verify", "--e-max", "1", "--t-max", "1"], 0, None),
    ("verify_4_6_plain", ["verify", "--e-max", "4", "--t-max", "6"], 0, None),
    *((f"verify_fault_{fault}_1_1_plain", ["verify", "--e-max", "1", "--t-max", "1"], 3,
       fault)
      for fault in FAULTS),
]


def run(argv: list[str], fault: str | None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if fault:
            module, name, corrupt = FAULTS[fault]
            stack.enter_context(
                mock.patch.object(module, name, corrupt(getattr(module, name))))
        stack.enter_context(contextlib.redirect_stdout(out))
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv, code, fault", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden_file(name, argv, code, fault):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run(argv, fault) == (code, want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code, fault in CASES:
        got, text = run(argv, fault)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
