"""What bench/ reads from src/: the names and modules its tracer and child use.

bench/tracer.py is read from its file, not imported, so nothing is written
under bench/.  These tests go when the tracer does.
"""

import os
import sys
import types
from pathlib import Path

from conftest import _fresh_child

import fescroll.cli as cli

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer() -> types.ModuleType:
    module = types.ModuleType("tracer")
    exec(compile(TRACER_PY.read_text(encoding="utf-8"), str(TRACER_PY), "exec"), vars(module))
    return module


def test_cli_import_registers_every_traced_layer_and_loading_verify_adds_none():
    # the benchmark's self-tests read every fescroll module while iterating
    # sys.modules, and that read is what loads verify
    layers = _tracer().LAYERS
    proc = _fresh_child(
        "import sys\n"
        "import fescroll.cli\n"
        f"missing = [layer for layer in {layers!r} if f'fescroll.{{layer}}' not in sys.modules]\n"
        "before = set(sys.modules)\n"
        "fescroll.cli.verify.run_all\n"
        "print(missing, sorted(set(sys.modules) - before))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def test_cli_binds_what_the_benchmark_calls_and_patches():
    for name in ("main", "build_parser", "run_all", "cmd_cohomology"):
        assert callable(getattr(cli, name)), name


def test_tracer_wraps_every_verify_check_and_restores_it():
    verify = sys.modules["fescroll.verify"]
    checks = list(verify._CHECKS)
    tracer = _tracer().Tracer()
    with tracer:
        wrapped = list(verify._CHECKS)
        assert cli.main(["verify", "--e-max", "0", "--t-max", "0", "--out", os.devnull]) == 0
    assert verify._CHECKS == checks
    assert len(checks) == 28
    assert [fn.traced_name for _label, fn in wrapped] == [
        f"verify.{fn.__name__}" for _label, fn in checks]
    calls = tracer.totals()["calls"]
    assert all(calls[f"verify.{fn.__name__}"] > 0 for _label, fn in checks)
    assert calls["cli.run_all"] == calls["verify.run_all"] == 1
