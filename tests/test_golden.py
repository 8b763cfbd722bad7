"""Byte-for-byte CLI output against files under tests/golden/.

Each case is one CLI call: its stdout must equal tests/golden/<name>.txt
exactly and its exit code must match.  After an intentional output
change, rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import fescroll.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("plain", "json", "csv")
MEMBERS = [(2, 7, 0), (0, 3, 0), (1, 4, 3), (3, 5, 2), (5, 20, 40)]

CASES = [
    *((f"report_{e}_{b}_{t}_{fmt}",
       ["report", "-e", str(e), "-b", str(b), "-t", str(t), "--format", fmt], 0)
      for e, b, t in MEMBERS for fmt in FORMATS),
    *((f"{command}_2_7_0_{fmt}",
       [command, "-e", "2", "-b", "7", "-t", "0", "--format", fmt], 0)
      for command in ("uniformity", "hilbpoly") for fmt in FORMATS),
    *((f"hilbert_2_0_{fmt}", ["hilbert", "-e", "2", "-t", "0", "--format", fmt], 0)
      for fmt in FORMATS),
    *((f"hilbert_2_0_force_b_6_{fmt}",
       ["hilbert", "-e", "2", "-t", "0", "--force-b", "6", "--format", fmt], 2)
      for fmt in FORMATS),
    *((f"table_2_2_{fmt}", ["table", "--e-max", "2", "--t-max", "2", "--format", fmt], 0)
      for fmt in FORMATS),
    ("verify_1_1_plain", ["verify", "--e-max", "1", "--t-max", "1"], 0),
]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden_file(name, argv, code):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run(argv) == (code, want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got, text = run(argv)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
