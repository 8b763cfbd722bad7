"""Reference values and output checks, computed without importing fescroll.

Every check takes the argv of one CLI call with its exit code, stdout and
stderr, and returns None when the output is right or a one-line
description of the first mismatch.  The expected values come from closed
forms in (e, b, t) and from Riemann-Roch on F_e, evaluated here:

    n = 5e+2b+4t+27, d = 8e+5b+7t+40, c2 = 3b+8+t, r = 3e+5+t,
    ell2 = b-t-2e-4, ell3 = 0, h0(E) = n+1, P(m) = chi(Sym^m E),

and, on the regime e <= 2, b = 2e+3+t only, dim = n(n+1)+9e+20+6t.
Line-bundle cohomology uses the clipped arithmetic-series sum for h^0,
Serre duality for h^2 and Riemann-Roch for chi.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import grid_members

IDENTITIES = 28

TABLE_HEADER = ["e", "b", "t", "n", "d", "c2", "r", "ell2", "ell3", "h0E",
                "paper_regime", "dim", "codim"]
REPORT_CSV_HEADER = ["e", "b", "t", "n", "d", "c1_a", "c1_c", "c2", "r",
                     "ell2", "ell3", "h0E", "paper_regime", "dim", "codim"]


# ------------------------------------------------------------ arithmetic


def _pair(e: int, d1: tuple[int, int], d2: tuple[int, int]) -> int:
    """Intersection pairing on F_e: C0^2 = -e, f^2 = 0, C0.f = 1."""
    return d1[0] * d2[1] + d2[0] * d1[1] - e * d1[0] * d2[0]


def _chi(e: int, a: int, c: int) -> int:
    """Riemann-Roch: chi(D) = 1 + D.(D-K)/2 with K = -2*C0 - (e+2)*f."""
    return 1 + _pair(e, (a, c), (a + 2, c + e + 2)) // 2


def _h0(e: int, a: int, c: int) -> int:
    """sum_{j=0..a} max(0, c - j*e + 1), summed in closed form."""
    if a < 0 or c < 0:
        return 0
    last = a if e == 0 else min(a, c // e)
    return (last + 1) * (c + 1) - e * last * (last + 1) // 2


def cohomology_table(e: int, a: int, c: int) -> tuple[int, int, int, int]:
    """(h0, h1, h2, chi) of a*C0 + c*f on F_e."""
    if a == -1:
        return (0, 0, 0, 0)
    h0 = _h0(e, a, c)
    h2 = _h0(e, -2 - a, -(e + 2) - c)
    chi = _chi(e, a, c)
    return (h0, h0 + h2 - chi, h2, chi)


def _sym_chi(e: int, b: int, t: int, m: int) -> int:
    """chi(Sym^m E) for E = A + B, A = 3*C0 + (3e+5+t)*f, B = C0 + (b+1)*f."""
    return sum(
        _chi(e, 3 * i + (m - i), (3 * e + 5 + t) * i + (b + 1) * (m - i))
        for i in range(m + 1)
    )


def member(e: int, b: int, t: int) -> dict:
    """Every reference value of the member (e, b, t)."""
    n = 5 * e + 2 * b + 4 * t + 27
    regime = e <= 2 and b == 2 * e + 3 + t
    return {
        "n": n,
        "d": 8 * e + 5 * b + 7 * t + 40,
        "c1": [4, b + 3 * e + 6 + t],
        "c2": 3 * b + 8 + t,
        "r": 3 * e + 5 + t,
        "ell2": b - t - 2 * e - 4,
        "ell3": 0,
        "h0E": n + 1,
        "P": [_sym_chi(e, b, t, m) for m in range(4)],
        "regime": regime,
        "dim": n * (n + 1) + 9 * e + 20 + 6 * t if regime else None,
        "codim": max(e - 1, 0) if regime else None,
        "hTX": ((13, 0, 0, 0) if e == 0 else (e + 12, e - 1, 0, 0)) if regime else None,
    }


# ----------------------------------------------------------------- parsing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_line(values) -> str:
    return ",".join(_cell(v) for v in values)


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _poly_values(coeffs: list[Fraction]) -> list[Fraction]:
    return [sum(c * m ** k for k, c in enumerate(coeffs)) for m in range(4)]


def _parse_plain_poly(text: str) -> list[Fraction]:
    """Coefficients of a polynomial printed as '1 + (203/12)*m + 91*m^3'."""
    coeffs = [Fraction(0)] * 4
    for term in text.split(" + "):
        coeff, _, mono = term.partition("*")
        if mono in ("", "m"):
            power = len(mono)
        elif mono.startswith("m^"):
            power = int(mono[2:])
        else:
            raise ValueError(f"bad term {term!r}")
        coeffs[power] = Fraction(coeff.strip("()"))
    return coeffs


# ------------------------------------------------------------------ checks


def _first_difference(got: list[str], want: list[str]) -> str | None:
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i}: got {g!r}, expected {w!r}"
    return f"got {len(got)} lines, expected {len(want)}"


def _check_table(argv, out: str) -> str | None:
    opts = _options(argv)
    rows = []
    for e, b, t in grid_members(int(opts["--e-max"]), int(opts["--t-max"])):
        ref = member(e, b, t)
        rows.append(_csv_line([
            e, b, t, ref["n"], ref["d"], ref["c2"], ref["r"], ref["ell2"],
            ref["ell3"], ref["h0E"], ref["regime"], ref["dim"], ref["codim"],
        ]))
    return _first_difference(out.splitlines(), [",".join(TABLE_HEADER), *rows])


def _check_verify(argv, out: str) -> str | None:
    lines = out.splitlines()
    passed = sum(line.startswith("PASS") for line in lines)
    failed = sum(line.startswith("FAIL") for line in lines)
    summary = f"{IDENTITIES} identities checked, {IDENTITIES} passed, 0 failed"
    if passed != IDENTITIES or failed or not lines or lines[-1] != summary:
        return f"{passed} PASS and {failed} FAIL lines, last line {lines[-1:]!r}"
    return None


def _report_expected_plain(e: int, b: int, t: int, ref: dict) -> list[str]:
    lines = [
        f"e={e} b={b} t={t}",
        f"c1 = 4*C0 + {ref['c1'][1]}*f",
        f"c2 = {ref['c2']}",
        f"n = {ref['n']}",
        f"d = {ref['d']}",
        f"r = {ref['r']}, ell2 = {ref['ell2']}, ell3 = {ref['ell3']}",
        "uniform: true, splitting type (3, 1)",
        f"h^i(E) = ({ref['h0E']}, 0, 0)",
        f"h^i(X, L) = ({ref['h0E']}, 0, 0, 0)",
    ]
    if ref["regime"]:
        lines.append(
            f"hilbert: dim = {ref['dim']}, codim of scroll locus = {ref['codim']}, "
            f"chi(N) = {ref['dim']}, h(T_X) = {ref['hTX']}, chi(T_X) = 13"
        )
    else:
        lines.append("hilbert: not reported (hypothesis flags do not all hold)")
    return lines


def _check_report(argv, out: str) -> str | None:
    opts = _options(argv)
    e, b, t = int(opts["-e"]), int(opts["-b"]), int(opts["-t"])
    ref = member(e, b, t)
    fmt = opts.get("--format", "plain")
    where = f"report e={e} b={b} t={t} {fmt}"
    if fmt == "csv":
        row = _csv_line([
            e, b, t, ref["n"], ref["d"], *ref["c1"], ref["c2"], ref["r"],
            ref["ell2"], ref["ell3"], ref["h0E"], ref["regime"], ref["dim"],
            ref["codim"],
        ])
        problem = _first_difference(out.splitlines(), [",".join(REPORT_CSV_HEADER), row])
        return problem and f"{where}: {problem}"
    if fmt == "json":
        payload = json.loads(out)
        scroll, uni = payload["scroll"], payload["uniformity"]
        coeffs = [Fraction(num, den) for num, den in scroll["hilbert_poly"]]
        hilbert = payload.get("hilbert")
        got = {
            "params": payload["params"], "n": scroll["n"], "d": scroll["d"],
            "c1": scroll["c1"], "c2": scroll["c2"], "E": scroll["cohomology"]["E"],
            "h_of_L": scroll["h_of_L"], "P": _poly_values(coeffs),
            "uniformity": [uni["uniform"], uni["r"], uni["ell2"], uni["ell3"],
                           uni["splitting_type"]],
            "hilbert": hilbert and [hilbert["dim_component"], hilbert["chiN"],
                                    hilbert["codim_scroll_locus"], hilbert["hTX"]],
        }
        h0 = ref["h0E"]
        want = {
            "params": {"e": e, "b": b, "t": t}, "n": ref["n"], "d": ref["d"],
            "c1": ref["c1"], "c2": ref["c2"],
            "E": {"h0": h0, "h1": 0, "h2": 0, "chi": h0}, "h_of_L": [h0, 0, 0, 0],
            "P": ref["P"],
            "uniformity": [True, ref["r"], ref["ell2"], ref["ell3"], [3, 1]],
            "hilbert": [ref["dim"], ref["dim"], ref["codim"], list(ref["hTX"])]
                       if ref["regime"] else None,
        }
        for key in want:
            if got[key] != want[key]:
                return f"{where}: {key} = {got[key]}, expected {want[key]}"
        return None
    lines = out.splitlines()
    missing = [line for line in _report_expected_plain(e, b, t, ref) if line not in lines]
    if missing:
        return f"{where}: no line {missing[0]!r}"
    poly = [line for line in lines if line.startswith("P(m) = ")]
    values = _poly_values(_parse_plain_poly(poly[0][len("P(m) = "):])) if poly else None
    if values != ref["P"]:
        return f"{where}: P(0..3) = {values}, expected {ref['P']}"
    return None


def _check_cohomology(argv, out: str) -> str | None:
    opts = _options(argv)
    e, a, c = int(opts["-e"]), int(opts["-a"]), int(opts["-c"])
    h0, h1, h2, chi = cohomology_table(e, a, c)
    fmt = opts.get("--format", "plain")
    if fmt == "json":
        want = [json.dumps({"e": e, "class": [a, c],
                            "table": {"h0": h0, "h1": h1, "h2": h2, "chi": chi}},
                           indent=2)]
        got = [json.dumps(json.loads(out), indent=2)]
    elif fmt == "csv":
        want = ["e,a,c,h0,h1,h2,chi", _csv_line([e, a, c, h0, h1, h2, chi])]
        got = out.splitlines()
    else:
        want = [f"h^i({a}*C0 + {c}*f on F_{e}) = ({h0}, {h1}, {h2}), chi = {chi}"]
        got = out.splitlines()
    problem = _first_difference(got, want)
    return problem and f"cohomology e={e} a={a} c={c} {fmt}: {problem}"


_CHECKS = {
    "table": _check_table,
    "verify": _check_verify,
    "report": _check_report,
    "cohomology": _check_cohomology,
}


def check(argv, code, out: str, err: str) -> str | None:
    """None if the call exited 0 with empty stderr and the right output."""
    if code != 0 or err:
        return f"{' '.join(argv)}: exit code {code}, stderr {err.strip()[-200:]!r}"
    try:
        return _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{' '.join(argv)}: unparsable output ({type(exc).__name__}: {exc})"
