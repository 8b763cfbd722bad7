"""Self-tests of the benchmark: python3 -m pytest bench -q

They run the child's call loop in-process, so monkeypatching the engine
reaches the calls being checked.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import fescroll.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402

SMALL_CALLS = [
    *(Call(("report", "-e", str(e), "-b", str(b), "-t", str(t), "--format", fmt), 1, (e, b, t))
      for (e, b, t), fmt in zip([(0, 3, 0), (2, 7, 0), (1, 1, 4), (5, 9, 2)],
                                itertools.cycle(workloads.FORMATS + ("json",)))),
    Call(("report", "-e", "1", "-b", "5", "-t", "0"), 1, (1, 5, 0)),
    *(Call(("cohomology", "-e", str(e), "-a", str(a), "-c", str(c), "--format", fmt), 1,
           (e, a, c))
      for (e, a, c), fmt in zip([(0, 3, 5), (2, -1, 7), (3, -5, -40), (4, 9, 17), (1, 0, -1)],
                                itertools.cycle(workloads.FORMATS))),
    Call(("table", "--e-max", "1", "--t-max", "2"), len(workloads.grid_members(1, 2)), "table"),
    Call(("verify", "--e-max", "0", "--t-max", "0"), 4, "verify"),
]


def _tally(calls: list[Call], trace: bool = False) -> run.Tally:
    tally = run.Tally(limit=float("inf"))
    tally.record(calls, child.run_calls([list(c.argv) for c in calls], trace))
    return tally


def _bindings() -> dict:
    """Every function bound in a fescroll namespace, and the verify checks."""
    bound = {
        (name, attr): obj
        for name, module in sys.modules.items() if name.startswith("fescroll")
        for attr, obj in vars(module).items() if callable(obj)
    }
    bound["_CHECKS"] = list(sys.modules["fescroll.verify"]._CHECKS)
    return bound


def test_reference_agrees_with_the_engine():
    tally = _tally(SMALL_CALLS)
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (len(SMALL_CALLS), 0)


@pytest.mark.parametrize("target, corrupt, command", [
    ("chern", lambda real: lambda p: type(real(p))(real(p).c1, real(p).c2 + 1), "report"),
    ("chern", lambda real: lambda p: type(real(p))(real(p).c1, real(p).c2 + 1), "table"),
    ("cohomology",
     lambda real: lambda s, d: type(real(s, d))(real(s, d).h0 + 1, real(s, d).h1 + 1,
                                                real(s, d).h2, real(s, d).chi),
     "cohomology"),
    ("run_all", lambda real: lambda e, t: real(e, t)[:-1], "verify"),
])
def test_injected_wrong_value_is_counted(monkeypatch, target, corrupt, command):
    monkeypatch.setattr(cli, target, corrupt(getattr(cli, target)))
    calls = [c for c in SMALL_CALLS if c.argv[0] == command]
    tally = _tally(calls)
    assert tally.attempted == len(calls)
    assert tally.failed == len(calls)


def test_wrong_exit_code_is_counted(monkeypatch):
    monkeypatch.setattr(cli, "cmd_cohomology", lambda args: ("", 3))
    calls = [c for c in SMALL_CALLS if c.argv[0] == "cohomology"]
    assert _tally(calls).failed == len(calls)


def test_tracer_restores_every_binding_and_counts_repeat():
    before = _bindings()
    first = _tally(SMALL_CALLS, trace=True).trace
    assert _bindings() == before
    second = _tally(SMALL_CALLS, trace=True).trace
    assert _bindings() == before
    for key in ("calls", "edges", "counts"):
        assert first[key] == second[key]
    calls = first["calls"]
    # a name reached through `from .x import y` is counted under its own module
    assert calls["surface_lattice.cohomology"] > 0
    assert calls["cli.main"] == len(SMALL_CALLS)
    assert calls["verify._check_uniformity"] == 1
    assert first["counts"]["fiber_terms"] > 0
    assert first["edges"]["bundle_family.invariant_r>surface_lattice.cohomology"] > 0


def test_tracing_off_wraps_nothing(monkeypatch):
    real = cli.cmd_table

    def table_seeing_no_wrapper(args):
        # an assertion error here becomes a failed call
        assert not any(hasattr(fn, "traced_name") for fn in _bindings().values())
        return real(args)

    monkeypatch.setattr(cli, "cmd_table", table_seeing_no_wrapper)
    tally = _tally([c for c in SMALL_CALLS if c.argv[0] == "table"])
    assert (tally.attempted, tally.failed) == (1, 0)
    assert not any(tally.trace.values())


def test_streams_are_seeded_and_batches_never_repeat_a_member():
    for name, stream in workloads.WORKLOADS.items():
        first = [c.argv for c in itertools.islice(stream(7), 300)]
        assert first == [c.argv for c in itertools.islice(stream(7), 300)]
        if name.startswith("grid"):
            continue
        assert first != [c.argv for c in itertools.islice(stream(8), 300)]
        for batch in workloads.batches(itertools.islice(stream(7), 300)):
            assert len({c.key for c in batch}) == len(batch)


def test_tail_is_the_highest_percentile_with_ten_beyond_but_not_below_the_median():
    assert run._tail([float(i) for i in range(200)]) == (189.0, "p95.0")
    assert run._tail([3.0, 1.0, 2.0]) == (2.0, "p66.7")
    assert run._tail([float(i) for i in range(22)]) == (11.0, "p54.5")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((proc.stdout.strip().splitlines() or [""])[-1])
