"""Command-line front end.

Subcommands: report, uniformity, cohomology, hilbpoly, hilbert, table,
verify.  Output formats: plain (default), json (a single object per
invocation), csv (fixed header row).  Exit codes: 0 success, 1 invalid
parameters or usage, 2 theorem hypotheses not satisfied, 3
internal-consistency failure.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import sys
from types import SimpleNamespace

from .bundle_family import FamilyParams, grid_member_count, surface_params
from .errors import ConsistencyError, HypothesesError, ParameterError
from .member import Member
from .surface_lattice import DivisorClass, SurfaceTables, cohomology


def _lazy(name: str):
    """fescroll.<name> in sys.modules, compiled and run on its first attribute read.

    An entry already in sys.modules is kept, so that every importer shares
    one module object, and the package binds it as an import would.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Only the verify command reads these, so no other command compiles them.
# They are registered rather than imported in cmd_verify because
# bench/tracer.py reads sys.modules["fescroll.verify"]; poly is registered
# too, so that loading verify adds no entry to sys.modules.
_lazy("poly")
verify = _lazy("verify")

_REPORT_CHECKS = [
    "c1 and c2 agree across the three presentations",
    "degree agrees across c1^2-c2, deg xi^3 and the closed form",
    "Hilbert polynomial from chi(Sym^m E) at m = 0..3 agrees with Riemann-Roch on X",
    "cohomology of E matches its closed forms",
    "ell(c1, c2, 2, r) = b-t-2e-4 at r = 3e+5+t",
    "ell(c1, c2, 3, r) = 0 at r = 3e+5+t",
]

# table and verify refuse grids with more members than this, so that no
# grid bound can start a run of unbounded length
MAX_GRID_MEMBERS = 100_000

_TABLE_HEADER = [
    "e", "b", "t", "n", "d", "c2", "r", "ell2", "ell3", "h0E",
    "paper_regime", "dim", "codim",
]


def _fmt_divisor(d: DivisorClass) -> str:
    sign = "+" if d.c >= 0 else "-"
    return f"{d.a}*C0 {sign} {abs(d.c)}*f"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_text(rows: list[dict], header: list[str] | None = None) -> str:
    """CSV of row dicts: header (the first row's keys unless given) selects the columns."""
    header = rows[0].keys() if header is None else header
    lines = [",".join(header)]
    lines.extend([",".join([_cell(row[key]) for key in header]) for row in rows])
    return "\n".join(lines)


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for the payloads' shapes.

    Those are dicts with str keys, lists, str, int, bool and None.  Unlike
    the encoder json.dumps runs for an indent, this forms no reference
    cycle, so a call leaves nothing behind for the collector.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json_str(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f"{_json_str(key)}: {_json_text(item, inner)}"
                 for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = (_json_text(item, inner) for item in value)
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_str(text: str) -> str:
    """A JSON string literal, escaped as json.dumps escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # no payload string needs an escape, so this runs rarely

    return json.dumps(text)


def _render(fmt: str, plain, payload, rows, header=None, code: int = 0) -> tuple[str, int]:
    """The output of a command in format fmt, and its exit code.

    plain() gives the text, payload() the object written as JSON and rows()
    the CSV rows: ordered dicts whose keys are the header, unless header
    selects among them.  Only what fmt asks for is built.
    """
    if fmt == "json":
        return _json_text(payload()), code
    if fmt == "csv":
        return _csv_text(rows(), header), code
    return plain(), code


def _member_row(member: Member) -> dict:
    """The columns of `report --format csv`; table selects _TABLE_HEADER of them."""
    p, cd, evidence, flags = member.params, member.chern, member.uniformity, member.flags
    h_of_n = member.h_of_N if flags.all_hold() else None
    return {
        "e": p.e, "b": p.b, "t": p.t, "n": member.n, "d": member.d,
        "c1_a": cd.c1.a, "c1_c": cd.c1.c, "c2": cd.c2,
        "r": evidence.r, "ell2": evidence.ell2, "ell3": evidence.ell3,
        "h0E": member.tables[2].h0,
        "paper_regime": flags.paper_regime,
        "dim": h_of_n and h_of_n[0],
        "codim": h_of_n and member.tangent.h1,
    }


def _hilbert_payload(member: Member) -> dict:
    """The component report.

    Unless every flag holds, chi(N) carries a note saying it is only an
    Euler characteristic, and the proved fields are None.
    """
    h_of_n = member.h_of_N if member.flags.all_hold() else None
    tangent = h_of_n and member.tangent
    payload = {
        "params": member.params._asdict(),
        "flags": member.flags._asdict(),
        "n": member.n,
        "d": member.d,
        "chiN": member.chi_N,
    }
    if h_of_n is None:
        payload["chiN_note"] = ("euler characteristic only; not identified with h^0(N) "
                                "because the flags above do not all hold")
    payload.update(
        dim_component=h_of_n and h_of_n[0],
        hN=h_of_n and list(h_of_n),
        hTX=tangent and list(tangent.as_tuple()),
        chiTX=tangent and tangent.chi,
        codim_scroll_locus=tangent and tangent.h1,
    )
    return payload


# ------------------------------------------------------------------ report


def _report_payload(member: Member) -> dict:
    cd = member.chern
    tab_a, tab_b, tab_e = member.tables
    payload = {
        "params": member.params._asdict(),
        "scroll": {
            "n": member.n,
            "d": member.d,
            "c1": [cd.c1.a, cd.c1.c],
            "c2": cd.c2,
            "h_of_L": list(member.h_of_L),
            "hilbert_poly": member.hilbert_poly.to_pairs(),
            "cohomology": {
                "E": tab_e._asdict(),
                "A": tab_a._asdict(),
                "B": tab_b._asdict(),
            },
        },
        "uniformity": member.uniformity._asdict(),
        "checks": {"passed": list(_REPORT_CHECKS)},
    }
    if member.flags.all_hold():
        payload["hilbert"] = _hilbert_payload(member)
    return payload


def _report_plain(member: Member) -> str:
    p, cd, evidence = member.params, member.chern, member.uniformity
    split = evidence.splitting_type
    tab_a, tab_b, tab_e = member.tables
    lines = [
        f"e={p.e} b={p.b} t={p.t}",
        f"c1 = {_fmt_divisor(cd.c1)}",
        f"c2 = {cd.c2}",
        f"n = {member.n}",
        f"d = {member.d}",
        f"r = {evidence.r}, ell2 = {evidence.ell2}, ell3 = {evidence.ell3}",
        f"uniform: {_cell(evidence.uniform)}, splitting type ({split[0]}, {split[1]})",
    ]
    for name, tab in (("E", tab_e), ("A", tab_a), ("B", tab_b)):
        lines.append(f"h^i({name}) = {tab.as_tuple()}")
    lines.append(f"h^i(X, L) = {member.h_of_L}")
    lines.append("P(m) = " + member.hilbert_poly.pretty())
    if member.flags.all_hold():
        dim, tangent = member.h_of_N[0], member.tangent
        lines.append(
            f"hilbert: dim = {dim}, codim of scroll locus = {tangent.h1}, "
            f"chi(N) = {member.chi_N}, h(T_X) = {tangent.as_tuple()}, chi(T_X) = {tangent.chi}"
        )
    else:
        lines.append("hilbert: not reported (hypothesis flags do not all hold)")
    lines.append("checks passed: " + "; ".join(_REPORT_CHECKS))
    return "\n".join(lines)


def cmd_report(args) -> tuple[str, int]:
    member = Member(FamilyParams(args.e, args.b, args.t))
    # every format runs the checks the report lists; the CSV row reads
    # every value they guard but P, so P is forced here
    member.hilbert_poly
    return _render(
        args.format,
        plain=lambda: _report_plain(member),
        payload=lambda: _report_payload(member),
        rows=lambda: [_member_row(member)],
    )


# ------------------------------------------ uniformity, cohomology, hilbpoly


def cmd_uniformity(args) -> tuple[str, int]:
    member = Member(FamilyParams(args.e, args.b, args.t))
    p, evidence = member.params, member.uniformity
    split = evidence.splitting_type
    return _render(
        args.format,
        plain=lambda: (
            f"r = {evidence.r}\nell2 = {evidence.ell2}\nell3 = {evidence.ell3}\n"
            f"splitting type ({split[0]}, {split[1]})\nuniform: {_cell(evidence.uniform)}"
        ),
        payload=lambda: {"params": p._asdict(), **evidence._asdict()},
        rows=lambda: [{
            **p._asdict(), "r": evidence.r, "ell2": evidence.ell2, "ell3": evidence.ell3,
            "split_0": split[0], "split_1": split[1], "uniform": evidence.uniform,
        }],
    )


def cmd_cohomology(args) -> tuple[str, int]:
    table = cohomology(args.e, DivisorClass(args.a, args.c))
    return _render(
        args.format,
        plain=lambda: (
            f"h^i({args.a}*C0 + {args.c}*f on F_{args.e}) = "
            f"({table.h0}, {table.h1}, {table.h2}), chi = {table.chi}"
        ),
        payload=lambda: {"e": args.e, "class": [args.a, args.c], "table": table._asdict()},
        rows=lambda: [{"e": args.e, "a": args.a, "c": args.c,
                       "h0": table.h0, "h1": table.h1, "h2": table.h2, "chi": table.chi}],
    )


def cmd_hilbpoly(args) -> tuple[str, int]:
    member = Member(FamilyParams(args.e, args.b, args.t))
    p, poly = member.params, member.hilbert_poly
    return _render(
        args.format,
        plain=lambda: f"P(m) = {poly.pretty()}",
        payload=lambda: {
            "params": p._asdict(),
            "n": member.n,
            "d": member.d,
            "hilbert_poly": poly.to_pairs(),
        },
        rows=lambda: [{
            **p._asdict(),
            **{f"c{power}_{part}": value
               for power, pair in enumerate(poly.to_pairs())
               for part, value in zip(("num", "den"), pair)},
        }],
    )


# ----------------------------------------------------------------- hilbert


def _hilbert_plain(member: Member, payload: dict) -> str:
    p, flags = member.params, member.flags
    flag_line = ", ".join(f"{k}={_cell(v)}" for k, v in payload["flags"].items())
    lines = [
        f"e={p.e} b={p.b} t={p.t}",
        f"flags: {flag_line}",
        f"n = {member.n}, d = {member.d}",
    ]
    if flags.all_hold():
        h_of_n, tangent = member.h_of_N, member.tangent
        lines.append(f"dim = {h_of_n[0]} (= chi(N) = h^0(N) = {member.chi_N})")
        lines.append(f"h(N) = {h_of_n}")
        lines.append(f"h(T_X) = {tangent.as_tuple()}, chi(T_X) = {tangent.chi}")
        lines.append(f"codim of scroll locus = {tangent.h1}")
    else:
        failing = ", ".join(flags.failing())
        lines.append(f"hypotheses not satisfied: {failing}")
        lines.append(f"chi(N) = {member.chi_N} ({payload['chiN_note']})")
        lines.append("dim, codim, h(T_X): not reported")
    return "\n".join(lines)


def cmd_hilbert(args) -> tuple[str, int]:
    b = args.force_b if args.force_b is not None else 2 * args.e + 3 + args.t
    member = Member(FamilyParams(args.e, b, args.t))
    payload = _hilbert_payload(member)  # every format reads it
    return _render(
        args.format,
        plain=lambda: _hilbert_plain(member, payload),
        payload=lambda: payload,
        rows=lambda: [{
            **payload["params"], "n": payload["n"], "d": payload["d"], "chiN": payload["chiN"],
            "dim": payload["dim_component"], "codim": payload["codim_scroll_locus"],
            "chiTX": payload["chiTX"], **payload["flags"],
        }],
        code=0 if member.flags.all_hold() else 2,
    )


# ------------------------------------------------------------------- table


def _check_grid(e_max: int, t_max: int) -> None:
    if e_max < 0 or t_max < 0:
        raise ParameterError("bounds", "require --e-max >= 0 and --t-max >= 0")
    count = grid_member_count(e_max, t_max)
    if count <= MAX_GRID_MEMBERS:
        return
    try:
        spans = f"{count} members"
    except ValueError:  # str() refuses an int of this many digits, as in _run
        spans = f"at least 10^{sys.get_int_max_str_digits()} members"
    raise ParameterError(
        "grid_size",
        f"--e-max {e_max} --t-max {t_max} spans {spans}, "
        f"above the bound of {MAX_GRID_MEMBERS}",
    )


def cmd_table(args) -> tuple[str, int]:
    _check_grid(args.e_max, args.t_max)
    rows = []
    for e in range(args.e_max + 1):
        surface = SurfaceTables(e)  # the members of F_e share its tables
        rows += (_member_row(Member(params, surface)) for params in surface_params(e, args.t_max)
                 if not args.paper_regime_only or params.paper_regime)
    return _render(
        args.format,
        # plain and csv coincide for a grid listing
        plain=lambda: _csv_text(rows, _TABLE_HEADER),
        payload=lambda: {"rows": [{key: row[key] for key in _TABLE_HEADER} for row in rows]},
        rows=lambda: rows,
        header=_TABLE_HEADER,
    )


# ------------------------------------------------------------------ verify


def run_all(e_max: int, t_max: int) -> list:
    """verify.run_all(e_max, t_max); the first call compiles and runs verify."""
    return verify.run_all(e_max, t_max)


def cmd_verify(args) -> tuple[str, int]:
    _check_grid(args.e_max, args.t_max)
    results = run_all(args.e_max, args.t_max)
    lines = []
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        lines.append(f"{status}  [{result.cases:6d} cases]  {result.name}")
        lines.extend(f"      {detail}" for detail in result.failures)
    failed = sum(not result.ok for result in results)
    lines.append(
        f"{len(results)} identities checked, {len(results) - failed} passed, "
        f"{failed} failed"
    )
    return "\n".join(lines), 0 if failed == 0 else 3


# -------------------------------------------------------------------- main


_INT = {"type": int, "required": True}
_MEMBER = {"-e": _INT, "-b": _INT, "-t": _INT}
_GRID = {"--e-max": _INT, "--t-max": _INT}
_OUTPUT = {"--format": {"choices": ("plain", "json", "csv"), "default": "plain"}, "--out": {}}

# name -> (help, {flag: spec}); each command runs cmd_<name>, looked up when
# argv is parsed so that a rebinding of cmd_<name> is honoured
_COMMANDS = {
    "report": ("all invariants of one member", {**_MEMBER, **_OUTPUT}),
    "uniformity": ("restriction invariants r and ell", {**_MEMBER, **_OUTPUT}),
    "cohomology": ("h^i of a*C0 + c*f on F_e", {"-e": _INT, "-a": _INT, "-c": _INT, **_OUTPUT}),
    "hilbpoly": ("Hilbert polynomial of (X, L)", {**_MEMBER, **_OUTPUT}),
    "hilbert": ("Hilbert-scheme component report (b = 2e+3+t unless forced)",
                {"-e": _INT, "-t": _INT, "--force-b": {"type": int}, **_OUTPUT}),
    "table": ("grid of invariants, one row per (e, b, t)",
              {**_GRID, "--paper-regime-only": {"switch": True, "default": False}, **_OUTPUT}),
    "verify": ("run every identity check over a grid", {**_GRID, "--out": {}}),
}


def _usage_error(command: str, problem: str) -> ParameterError:
    return ParameterError("usage", f"{command}: {problem}")


def _help(command: str | None) -> SimpleNamespace:
    """The call that prints the help of command, or of fescroll when None."""
    if command is None:
        lines = ["usage: fescroll <command> [flags]; fescroll <command> -h lists the flags",
                 "", "Exact invariants of rank-two bundles on F_e and their scrolls", "",
                 *(f"  {name:<10}  {text}" for name, (text, _flags) in _COMMANDS.items())]
    else:
        text, flags = _COMMANDS[command]
        usage = ["usage: fescroll", command]
        for flag, spec in flags.items():
            kind = spec.get("choices") or ["INT" if "type" in spec else "PATH"]
            word = flag if spec.get("switch") else f"{flag} {'|'.join(kind)}"
            usage.append(word if spec.get("required") else f"[{word}]")
        lines = [" ".join(usage), "", text]
    return SimpleNamespace(func=lambda _args: ("\n".join(lines), 0), out=None)


def _value(command: str, flag: str, spec: dict, token: str | None):
    """flag's value in token, by its type and among its choices; `-` may lead only an int."""
    if token is None:
        raise _usage_error(command, f"missing the value of {flag}")
    if token[:1] == "-" and not (token[1:].isascii() and token[1:].isdigit()):
        raise _usage_error(command, f"{flag} needs a value, not {token!r}")
    try:
        value = spec.get("type", str)(token)
    except ValueError:
        kind = f"an integer of at most {sys.get_int_max_str_digits()} digits"
        raise _usage_error(command, f"{flag} takes {kind}, not {token!r}") from None
    if value not in spec.get("choices", [value]):
        raise _usage_error(command, f"{flag} takes {'|'.join(spec['choices'])}, not {token!r}")
    if value == "":
        raise _usage_error(command, f"{flag} takes a path, not ''")
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """The call argv spells, every flag of its command set; else a usage ParameterError.

    argv is a command, then its flags, each spelled out in full, at most once,
    every required one among them, and each but a switch followed by its value.
    -h or --help in place of the command or of a flag asks for help.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        problem = "missing command" if command is None else f"unknown command {command!r}"
        raise _usage_error("fescroll", f"{problem}; choose one of {', '.join(_COMMANDS)}")
    flags, given, tokens = _COMMANDS[command][1], {}, iter(argv[1:])
    for flag in tokens:
        if flag in ("-h", "--help"):
            return _help(command)
        if flag in given or flag not in flags:
            raise _usage_error(command, f"repeated flag {flag!r}" if flag in given else
                               f"unknown argument {flag!r}; {command} takes {', '.join(flags)}")
        spec = flags[flag]
        given[flag] = spec.get("switch") or _value(command, flag, spec, next(tokens, None))
    missing = [flag for flag, spec in flags.items() if spec.get("required") and flag not in given]
    if missing:
        raise _usage_error(command, f"missing {', '.join(missing)}")
    return SimpleNamespace(command=command, func=globals()[f"cmd_{command}"], **{
        flag.lstrip("-").replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in flags.items()})


def build_parser():
    """Return _parse.  bench/child.py --setup times this call, so the name stays."""
    return _parse


def _run(args: SimpleNamespace) -> tuple[str, int]:
    """Run the parsed command; an output too long to print is a ParameterError."""
    try:
        return args.func(args)
    except ValueError as exc:
        # str() refuses an int of more than sys.get_int_max_str_digits()
        # digits; the limit is kept, so the call fails as a parameter error
        if "integer string conversion" not in str(exc):
            raise
        raise ParameterError(
            "output_digits",
            f"an output integer has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer",
        ) from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        text, code = _run(args)
    except (ParameterError, HypothesesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, HypothesesError) else 1
    except ConsistencyError as exc:
        print(f"error: internal consistency: {exc}", file=sys.stderr)
        return 3
    try:
        _write(text, args.out)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot write {args.out or 'stdout'}: {reason}", file=sys.stderr)
        return 1
    return code


def _write(text: str, out: str | None) -> None:
    """Write text and a newline to the file out, or to stdout when out is None."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except OSError:
        # the reader has gone (say, `| head`) or the device is full; point
        # stdout at devnull so that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def entry() -> None:
    sys.exit(main())


# Whatever is alive once this module is imported lives until exit; moving it
# out of the collector's generations keeps every later collection from
# rescanning it.
gc.freeze()
