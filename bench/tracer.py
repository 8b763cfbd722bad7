"""Outside-in span tracer for the fescroll layers.

The engine modules bind each other's functions with `from .x import y`, so
one function can be reachable under several module names.  `Tracer`
wraps every public function defined in a layer module, rebinds the
wrapper in every `fescroll.*` namespace that binds the original, wraps
the registered identity checks of `fescroll.verify`, and restores every
original on exit.  Nothing is wrapped outside the `with` block.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it started.  Spans are folded into totals as they
close rather than stored, because a traced `verify` opens millions:

    calls[name], incl_s[name]   calls and inclusive seconds
    self_s[name]                inclusive seconds minus child spans
    edges["parent>name"]        calls per parent span ("" at the root)
    counts["fiber_terms"]       sum of len(pushforward_degrees(...))
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "surface_lattice",
    "bundle_family",
    "chow_ring",
    "scroll_invariants",
    "hilbert_component",
    "verify",
    "cli",
)

# span name -> counter that accumulates len() of the span's return value
RESULT_LENGTHS = {"surface_lattice.pushforward_degrees": "fiber_terms"}


class Tracer:
    def __init__(self) -> None:
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._restore: list = []

    def __enter__(self) -> Tracer:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fescroll.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "fescroll" and not modname.startswith("fescroll."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        checks = getattr(sys.modules["fescroll.verify"], "_CHECKS", [])
        original = list(checks)
        checks[:] = [(label, self._wrap(fn, f"verify.{fn.__name__}")) for label, fn in checks]
        self._restore.append((checks, None, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self._restore):
            if name is None:
                target[:] = original
            else:
                setattr(target, name, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        stack, clock = self._stack, time.perf_counter
        incl_s, self_s, edges = self.incl_s, self.self_s, self.edges
        length_counter = RESULT_LENGTHS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            edge = (stack[-1][0] if stack else "", name)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                incl_s[name] += elapsed
                self_s[name] += elapsed - frame[1]
                edges[edge] += 1
            if length_counter:
                counts[length_counter] += len(result)
            return result

        span.traced_name = name
        return span

    def totals(self) -> dict:
        calls: Counter = Counter()
        for (_parent, name), n in self.edges.items():
            calls[name] += n
        return {
            "calls": dict(calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "edges": {f"{parent}>{name}": n for (parent, name), n in self.edges.items()},
            "counts": dict(self.counts),
        }
