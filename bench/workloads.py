"""Seeded workload generators: each yields CLI argv lists, never fescroll objects.

The generators run in the benchmark's parent process; child processes
receive only the argv lists.  Every workload is an endless stream of
calls, and a run consumes as long a prefix of it as its time allows.

The two stream workloads draw from a low-discrepancy (Kronecker)
sequence whose starting point comes from the seed.  Any prefix of it
covers the distribution evenly, so runs with different seeds measure the
same mix of cheap and expensive members and differ only in which ones.
The grid workloads have one fixed argv each; their seed selects nothing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

GRID = ("--e-max", "8", "--t-max", "12")
FORMATS = ("plain", "json", "csv")
BATCH_CALLS = 40


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its argv, how many items it processes, and the
    key of the member or class it touches (a child never sees a key twice)."""

    argv: tuple[str, ...]
    items: int
    key: tuple


def grid_members(e_max: int, t_max: int) -> list[tuple[int, int, int]]:
    """Valid (e, b, t) with e <= e_max, t <= t_max, in the CLI's (e, t, b) order."""
    return [
        (e, b, t)
        for e in range(e_max + 1)
        for t in range(t_max + 1)
        for b in range(e, 2 * e + 4 + t)
    ]


def _r2_alphas() -> tuple[float, float]:
    """Steps of the R2 sequence: 1/g and 1/g^2 for the plastic number g,
    the root of g^3 = g + 1.  Its points cover the unit square most evenly."""
    g = 1.5
    for _ in range(64):
        g -= (g ** 3 - g - 1) / (3 * g * g - 1)
    return 1.0 / g, 1.0 / (g * g)


# The first two coordinates, which decide a call's cost, form an R2
# sequence; the other two step by sqrt(2) and sqrt(3) and stay independent.
_ALPHAS = (*_r2_alphas(), math.sqrt(2) % 1.0, math.sqrt(3) % 1.0)


def _kronecker(seed: int) -> Iterator[list[float]]:
    """Points in [0, 1)^4 from the steps above, shifted by seeded offsets."""
    rng = random.Random(seed)
    offsets = [rng.random() for _ in _ALPHAS]
    for k in itertools.count(1):
        yield [(o + k * a) % 1.0 for o, a in zip(offsets, _ALPHAS)]


def _log_uniform(u: float, top: int) -> int:
    """Integer in [0, top] whose value + 1 is log-uniform in [1, top + 1]."""
    return min(top, int(math.exp(u * math.log(top + 1))) - 1)


def _grid(command: str) -> Callable[[int], Iterator[Call]]:
    argv = (command, *GRID)
    items = len(grid_members(int(GRID[1]), int(GRID[3])))
    return lambda seed: itertools.repeat(Call(argv, items, argv))


def member_reports(seed: int) -> Iterator[Call]:
    """Single-member reports: e log-uniform in [0, 60], t log-uniform in
    [0, 3000], b uniform over the valid window; 30% of the e <= 2 draws are
    put on the regime b = 2e+3+t.  Formats rotate plain, json, csv."""
    for k, (ut, ub, ue, ureg) in enumerate(_kronecker(seed)):
        e = _log_uniform(ue, 60)
        t = _log_uniform(ut, 3000)
        top = 2 * e + 3 + t
        b = top if e <= 2 and ureg < 0.3 else e + min(int(ub * (top - e + 1)), top - e)
        argv = ("report", "-e", str(e), "-b", str(b), "-t", str(t),
                "--format", FORMATS[k % 3])
        yield Call(argv, 1, (e, b, t))


def cohomology_large(seed: int) -> Iterator[Call]:
    """Classes a*C0 + c*f on F_e: e uniform in [0, 6], |a| log-uniform up to
    3*10^5 with either sign, c uniform in [-10^6, 10^6]."""
    for k, (ua, us, ue, uc) in enumerate(_kronecker(seed)):
        e = min(int(ue * 7), 6)
        a = _log_uniform(ua, 300_000) * (-1 if us < 0.5 else 1)
        c = min(int(uc * 2_000_001), 2_000_000) - 1_000_000
        argv = ("cohomology", "-e", str(e), "-a", str(a), "-c", str(c),
                "--format", FORMATS[k % 3])
        yield Call(argv, 1, (e, a, c))


WORKLOADS: dict[str, Callable[[int], Iterator[Call]]] = {
    "grid-table": _grid("table"),
    "grid-verify": _grid("verify"),
    "member-reports": member_reports,
    "cohomology-large": cohomology_large,
}

# Calls in the traced run: a fixed prefix, so that its counts repeat exactly.
TRACE_CALLS = {
    "grid-table": 1,
    "grid-verify": 1,
    "member-reports": 240,
    "cohomology-large": 240,
}


def batches(calls: Iterable[Call], size: int = BATCH_CALLS) -> Iterator[list[Call]]:
    """Split calls into child batches of at most `size`, starting a new batch
    whenever a key would repeat, so no process computes a member twice."""
    batch: list[Call] = []
    keys: set = set()
    for call in calls:
        if len(batch) == size or call.key in keys:
            yield batch
            batch, keys = [], set()
        batch.append(call)
        keys.add(call.key)
    if batch:
        yield batch
