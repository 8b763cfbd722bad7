#!/usr/bin/env python3
"""The fescroll benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it measures the `src` tree next to this directory.
One closed-loop client drives the public entry point fescroll.cli.main:
the workload's seeded calls are generated here, split into batches, and
each batch runs in one fresh child process (bench/child.py), one child at
a time.  A child never times one argv, or one member, twice, because a
CLI user pays for a fresh process on every call.  Every output is checked
against reference values computed here (bench/reference.py).

Times are reference seconds (bench/speed.py): wall time scaled by a
probe loop timed around each call, so that the host's speed drift does
not set the spread; the wall-clock value is printed beside each timing.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed prefix of the workload twice, untraced and then
under the outside-in tracer (bench/tracer.py), and reports the per-layer
metrics; the counts repeat exactly for one seed.  Per-layer seconds are
comparable only between traced runs.

The metric names and units are the ones listed in BENCHMARK.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; human-readable lines with sample counts come before
it.  The exit code is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from tracer import LAYERS
from workloads import TRACE_CALLS, WORKLOADS, Call, batches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
HARD_LIMIT_S = 170.0  # a workload's run ends within this, whatever the program does
SHOWN_PROBLEMS = 5


class Tally:
    """Outcomes of the calls of one run: checks, timings, memory, spans."""

    def __init__(self, limit: float) -> None:
        self.limit = limit  # perf_counter() by which every child has ended
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seconds: list[float] = []  # reference seconds, see bench/speed.py
        self.wall_seconds: list[float] = []
        self.items = 0
        self.rss_kb: list[int] = []
        self.trace = {"calls": Counter(), "incl_s": Counter(), "self_s": Counter(),
                      "edges": Counter(), "counts": Counter()}
        self.stopped = False

    def _fail(self, batch: list[Call], problem: str) -> None:
        self.attempted += len(batch)
        self.failed += len(batch)
        self.problems.append(problem)

    def run(self, batch: list[Call], trace: bool) -> None:
        """Run one batch in a fresh child and check every output."""
        request = json.dumps({"argvs": [call.argv for call in batch], "trace": trace})
        timeout = max(1.0, self.limit - time.perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD)], input=request, capture_output=True,
                text=True, timeout=timeout, cwd=ROOT, check=False,
            )
        except subprocess.TimeoutExpired:
            self._fail(batch, f"child timed out after {timeout:.0f} s")
            self.stopped = True
            return
        if proc.returncode != 0:
            self._fail(batch, f"child exited {proc.returncode}: {proc.stderr[-300:]}")
            return
        self.record(batch, json.loads(proc.stdout))

    def record(self, batch: list[Call], result: dict) -> None:
        """Check and count the outcomes a child returned for a batch."""
        for call, outcome in zip(batch, result["calls"]):
            self.attempted += 1
            problem = reference.check(call.argv, outcome["code"], outcome["out"],
                                      outcome["err"])
            if problem:
                self.failed += 1
                self.problems.append(problem)
            self.seconds.append(outcome["seconds"])
            self.wall_seconds.append(outcome["wall_seconds"])
            self.items += call.items
        self.rss_kb.append(result["peak_rss_kb"])
        for key, values in (result["trace"] or {}).items():
            self.trace[key].update(values)


def measure_setup() -> list[dict]:
    """Import plus parser build in fresh processes, after one warm-up that
    leaves the bytecode cache as a user's second invocation finds it."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(CHILD), "--setup"], capture_output=True,
                              text=True, timeout=60, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout))
    return samples[1:]


def _tail(ms: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it.  With
    fewer than 2 * TAIL_BEYOND + 2 samples that percentile falls below the
    median, and the median is taken instead, so the value never jumps as
    the sample count changes."""
    ordered = sorted(ms)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], f"p{100 * (index + 1) / n:.1f}"


def end_to_end(tally: Tally, setup: list[dict]) -> dict[str, tuple[float, str]]:
    """Metric -> (value, note); every time is in reference seconds, and the
    note gives the sample count and the wall-clock value beside it."""
    ms = [1000 * s for s in tally.seconds]
    wall_ms = [1000 * s for s in tally.wall_seconds]
    n = len(ms)
    tail, label = _tail(ms)
    setup_s = [sample["seconds"] for sample in setup]
    setup_wall_s = [sample["wall_seconds"] for sample in setup]
    return {
        "setup_s": (statistics.median(setup_s),
                    f"median of {len(setup)} fresh processes; wall clock "
                    f"{statistics.median(setup_wall_s):.4g}"),
        "items_per_s": (tally.items / sum(tally.seconds),
                        f"{tally.items} items in {n} calls; wall clock "
                        f"{tally.items / sum(tally.wall_seconds):.4g}"),
        "call_p50_ms": (statistics.median(ms),
                        f"median of {n} calls; wall clock {statistics.median(wall_ms):.4g}"),
        "call_tail_ms": (tail, f"{label} of {n} calls; wall clock {_tail(wall_ms)[0]:.4g}"),
        "peak_rss_mb": (max(tally.rss_kb) / 1024,
                        f"max over {len(tally.rss_kb)} child processes"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted,
                     f"{tally.failed} of {tally.attempted} calls failed"),
    }


def per_layer(traced: Tally, overhead: float) -> dict[str, tuple[float, str]]:
    calls, incl, self_s = (traced.trace[k] for k in ("calls", "incl_s", "self_s"))
    items = traced.items
    note = f"traced run, {len(traced.seconds)} calls, {items} items"

    def per_item(name: str) -> float:
        return calls[name] / items

    metrics = {
        f"{layer}.self_s": sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }
    metrics.update({
        "surface_lattice.cohomology.calls_per_item": per_item("surface_lattice.cohomology"),
        "surface_lattice.fiber_terms": traced.trace["counts"]["fiber_terms"],
        "bundle_family.chern.calls_per_item": per_item("bundle_family.chern"),
        "bundle_family.invariant_r.calls_per_item": per_item("bundle_family.invariant_r"),
        "bundle_family.invariant_r.incl_s": incl["bundle_family.invariant_r"],
        "bundle_family.r_scan_steps":
            traced.trace["edges"]["bundle_family.invariant_r>surface_lattice.cohomology"],
        "chow_ring.multiply.calls": calls["chow_ring.multiply"],
        "chow_ring.intersection_numbers.calls_per_item":
            per_item("chow_ring.intersection_numbers"),
        "scroll_invariants.hilbert_polynomial.calls_per_item":
            per_item("scroll_invariants.hilbert_polynomial"),
        "hilbert_component.chi_normal.calls_per_item": per_item("hilbert_component.chi_normal"),
        "hilbert_component.component_dimension.calls":
            calls["hilbert_component.component_dimension"],
        "trace.overhead_ratio": overhead,
    })
    for name, seconds in incl.items():
        if name.startswith("verify._check_"):
            metrics[f"verify.identity_s.{name[len('verify.'):]}"] = seconds
    return {name: (value, note) for name, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    """Returns (tally, metrics): every outcome, and metric -> (value, note)."""
    stream = WORKLOADS[name](seed)
    limit = time.perf_counter() + HARD_LIMIT_S
    if not trace:
        setup = measure_setup()
        tally = Tally(limit)
        deadline = time.perf_counter() + seconds
        last = 0.0  # wall time of the previous batch, the estimate for the next one
        for batch in batches(stream):
            start = time.perf_counter()
            # start a batch only if it should end by the deadline, give or take half a batch
            if tally.stopped or (tally.attempted and start + last / 2 > deadline):
                break
            tally.run(batch, trace=False)
            last = time.perf_counter() - start
        return tally, (end_to_end(tally, setup) if tally.seconds else {})
    calls = list(itertools.islice(stream, TRACE_CALLS[name]))
    plain, traced = Tally(limit), Tally(limit)
    for tally, traced_run in ((plain, False), (traced, True)):
        for batch in batches(calls):
            if not tally.stopped:
                tally.run(batch, trace=traced_run)
    if not (plain.seconds and traced.seconds):
        return plain, {}
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    return traced, per_layer(traced, sum(traced.seconds) / sum(plain.seconds))


def _report(workload: str, tally: Tally, metrics: dict, listed: list[dict]) -> dict:
    """Print one line per listed metric; return the result object."""
    out = {}
    for spec in listed:
        value, note = metrics.get(spec["name"], (0, "not reached on this workload"))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{workload:<17} {spec['name']:<52} {shown} {spec['unit']:<10} {note}")
    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fescroll" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no fescroll source tree or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    listed = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        tally, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if not metrics:
            print(f"{name}: no call completed; {tally.problems[:1]}", file=sys.stderr)
            return 1
        results[name] = _report(name, tally, metrics, listed)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
