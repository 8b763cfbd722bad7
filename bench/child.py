"""Child process of the benchmark: one fresh interpreter per batch of calls.

    python3 bench/child.py --setup
        prints {"seconds", "wall_seconds"} for importing fescroll.cli and
        building its parser.

    python3 bench/child.py < request.json
        reads {"argvs": [[...], ...], "trace": bool}, calls
        fescroll.cli.main(argv) in-process once per argv, and prints
        {"calls": [{"code", "out", "err", "seconds", "wall_seconds"}],
         "peak_rss_kb", "trace"}.

"seconds" are reference seconds (bench/speed.py), "wall_seconds" the
wall-clock time minus the time the speed probe took.  The source tree
imported is the `src` directory next to this one, so the child always
measures the checkout it lives in.  Top-level imports are limited to
modules the interpreter loads at start-up anyway, so that --setup times
the imports a fresh `fescroll` process pays for.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _call(cli, argv: list[str], probe) -> dict:
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    spent = probe.spent
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))  # looked up per call: the tracer may wrap it
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed call, reported with its traceback
        code = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "span": (start, end), "wall_seconds": end - start - (probe.spent - spent)}


def run_calls(argvs: list[list[str]], trace: bool) -> dict:
    """Time each argv once through fescroll.cli.main; trace spans if asked."""
    import contextlib
    import resource

    import fescroll.cli
    from speed import SpeedProbe
    from tracer import Tracer

    tracer = Tracer() if trace else None
    with SpeedProbe() as probe, tracer or contextlib.nullcontext():
        calls = [_call(fescroll.cli, argv, probe) for argv in argvs]
    for call in calls:
        call["seconds"] = call["wall_seconds"] * probe.scale(*call.pop("span"))
    totals = None
    if tracer:
        totals = tracer.totals()
        factor = probe.scale()
        for key in ("incl_s", "self_s"):
            totals[key] = {name: s * factor for name, s in totals[key].items()}
    return {
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": totals,
    }


def main() -> int:
    if sys.argv[1:] == ["--setup"]:
        start = time.perf_counter()
        import fescroll.cli

        fescroll.cli.build_parser()
        seconds = time.perf_counter() - start
        import json

        from speed import loop_seconds, scale

        factor = scale([loop_seconds() for _ in range(5)])
        print(json.dumps({"seconds": seconds * factor, "wall_seconds": seconds}))
        return 0
    import json

    request = json.load(sys.stdin)
    json.dump(run_calls(request["argvs"], request["trace"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
