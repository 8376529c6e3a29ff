"""Command-line front end.

Subcommands mirror the pipelines: `curve`, `surface`, `hypersurface`,
`osculating` and `salmon` emit a single report; `oracle` runs the
resultant-based plane-evolute check; `sweep` iterates a pipeline over
parameter ranges; `selftest` reproduces the whole verification grid.

Reports serialize to text tables, JSON (stable: sorted keys, two-space
indent) or CSV.  Exit status: 0 when every engine value matches its closed
form and every identity holds, 1 on any mismatch, 2 on input errors, 3 on
an internal fault (a non-integer reaching the integral class engine, a
broken engine invariant, an inexact interpolation, an inconclusive
elimination, a failed internal lookup).  The engine's invariant errors,
`TableMismatchError`, `NotInvertibleError` and `IncompleteDescriptorError`,
are `ValueError`s that no input raises, so they exit 3, not 2.  The CSV
renderers import `csv` (through `_csv`), so no other format loads it.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys
from collections.abc import Sequence
from functools import cache
from json.encoder import encode_basestring_ascii

from .chow import IncompleteDescriptorError
from .pipelines import (
    EnumerativeReport,
    curve_report,
    hypersurface_report,
    osculating_report,
    salmon_reference_report,
    surface_report,
    surface_report_from_degree,
)
from .ring import NotInvertibleError, TableMismatchError
from .varieties import CurveInvariants, SurfaceChernNumbers

INPUT_ERRORS = (ValueError, OSError)
# tested first: the engine's own invariant errors are ValueErrors too
INTERNAL_ERRORS = (
    TableMismatchError,
    NotInvertibleError,
    IncompleteDescriptorError,
    ArithmeticError,
    LookupError,
    TypeError,
)


def _lazy_module(name: str):
    """The module `name`, executed on its first attribute access.

    Only the `oracle` and `selftest` subcommands run the oracle, so the
    engine subcommands skip its definitions and imports.  The module is
    registered in `sys.modules` at once, where instrumentation looks for
    it.

    The lazy load is worth memory: over 7 launches of CPython 3.11 on Linux
    with no bytecode cache, `import evolute.cli` peaks at 15.1 MB of
    `ru_maxrss`, 16.5 MB with the oracle and its two imports executed, and
    a 30 s `perfbench` engine_sweep run, which never needs them, at
    28-30 MB.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


oracle = _lazy_module(f"{__package__}.oracle")


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


def render_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline, written
    directly: with an indent, `json.dumps` leaves its C encoder for a pure
    Python one, about twice as slow on a report.

    A payload holds dicts with str keys, lists, tuples, str, int, bool and
    None; any other value, a float included, raises TypeError.  Strings go
    through json's own (C) ASCII escaper, so the text is byte-identical.
    """
    pieces: list[str] = []
    _write_json(payload, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _write_json(value, newline: str, pieces: list[str]) -> None:
    """Append the JSON text of `value`, indented after each `newline`."""
    if isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner, separator = newline + "  ", "["
        for item in value:
            pieces.append(separator + inner)
            _write_json(item, inner, pieces)
            separator = ","
        pieces.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner, separator = newline + "  ", "{"
        for key, item in sorted(value.items()):
            # the escaper raises TypeError on a key that is not a str
            pieces.append(separator + inner + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, pieces)
            separator = ","
        pieces.append(newline + "}")
    else:
        raise TypeError(f"a report holds no {type(value).__name__} value")


def render_report_text(report: EnumerativeReport) -> str:
    lines = []
    echo = " ".join(f"{k}={v}" for k, v in report.input.items())
    lines.append(f"input: {echo}")
    lines.append("results:")
    width = max(len(r.locus) for r in report.results)
    lines.append(f"  {'locus':<{width}}  {'k':>2}  {'engine':>8}  {'closed':>8}  match")
    for r in report.results:
        k = "-" if r.k is None else str(r.k)
        closed = "-" if r.closed_form is None else str(r.closed_form)
        match = "-" if r.match is None else ("yes" if r.match else "NO")
        lines.append(f"  {r.locus:<{width}}  {k:>2}  {r.engine_degree:>8}  {closed:>8}  {match}")
    if report.identities:
        lines.append("identities:")
        for i in report.identities:
            verdict = "ok" if i.holds else "FAIL"
            lines.append(f"  [{verdict}] {i.name}: {i.lhs} == {i.rhs}")
    if report.flags:
        lines.append("flags:")
        lines.extend(f"  - {f}" for f in report.flags)
    lines.append("citations:")
    lines.extend(f"  - {c}" for c in report.citations)
    return "\n".join(lines) + "\n"


def _flat_input(report: EnumerativeReport) -> dict:
    flat = {}
    for key, value in report.input.items():
        if isinstance(value, dict):
            flat.update(value)
        elif isinstance(value, list):
            flat[key] = ";".join(map(str, value))
        else:
            flat[key] = value
    return flat


def _csv(rows: list[list]) -> str:
    """The rows as CSV text; the writer writes None as an empty field."""
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def render_report_csv(report: EnumerativeReport) -> str:
    """Long form: one row per locus."""
    base = _flat_input(report)
    header = list(base) + ["locus", "k", "engine_degree", "closed_form", "match"]
    return _csv(
        [header]
        + [list(base.values()) + [r.locus, r.k, r.engine_degree, r.closed_form, r.match]
           for r in report.results]
    )


def render_sweep_csv(reports: list[EnumerativeReport]) -> str:
    """Wide form: one row per parameter point."""
    input_keys = list(dict.fromkeys(key for report in reports for key in _flat_input(report)))
    ks = range(1, max((r.k or 0) for report in reports for r in report.results) + 1)
    rows = [input_keys + [f"k{k}_{column}" for k in ks for column in ("engine", "closed")]
            + ["all_match"]]
    for report in reports:
        flat = _flat_input(report)
        row = [flat.get(key) for key in input_keys]
        by_k = {r.k: r for r in report.results}
        for k in ks:
            r = by_k.get(k)
            row += [None, None] if r is None else [r.engine_degree, r.closed_form]
        rows.append(row + [report.passed])
    return _csv(rows)


def render_oracle_text(result: oracle.EvoluteResult) -> str:
    lines = [
        f"evolute polynomial: {result.text}",
        f"total degree: {result.degree}",
        f"expected degree: {result.expected_degree}",
        f"match: {'-' if result.match is None else ('yes' if result.match else 'NO')}",
    ]
    for flag in result.flags:
        lines.append(f"flag: {flag}")
    for entry in result.log:
        lines.append(f"log: {entry}")
    return "\n".join(lines) + "\n"


def render_oracle_csv(result: oracle.EvoluteResult) -> str:
    return _csv([
        ["degree", "expected_degree", "match", "flags", "polynomial"],
        [result.degree, result.expected_degree, result.match, ";".join(result.flags), result.text],
    ])


def _write(args: argparse.Namespace, value, payload, text, table=None) -> None:
    """Emit `value` in the chosen format: the JSON of payload(value),
    text(value) or the CSV table(value); only the chosen renderer runs."""
    if args.format == "json":
        rendered = render_json(payload(value))
    elif args.format == "csv":
        rendered = table(value)
    else:
        rendered = text(value)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------


def _parse_range(flag: str, text: str) -> list[int]:
    """Values of a sweep option: `lo..hi` (inclusive), `a,b,c` or one integer."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{flag} expects an integer, a list a,b,c or a range lo..hi, got {text!r}"
        ) from None
    if not values:
        raise ValueError(f"{flag} {text} is an empty range")
    return values


def _stationary(args: argparse.Namespace) -> tuple[int, ...]:
    ks = [getattr(args, f"k{i}") for i in range(5)]
    while ks and ks[-1] == 0:
        ks.pop()
    return tuple(ks)


def _add_curve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=3, help="ambient dimension")
    parser.add_argument("--d", type=int, required=True, help="curve degree")
    parser.add_argument("--g", type=int, default=0, help="genus")
    for i in range(5):
        parser.add_argument(
            f"--k{i}", type=int, default=0, help=f"weighted stationary index k{i}"
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="evolute",
        description="Exact degrees of envelopes, evolutes and their cuspidal loci.",
    )
    parser.add_argument("--config", metavar="PATH", help="read a run description from JSON")
    sub = parser.add_subparsers(dest="subcommand")
    # each subcommand's own parser, by name, for `main`'s one-pass parse
    parser.subcommands = sub.choices

    p = sub.add_parser("curve", help="normal-space family of a curve")
    _add_curve_options(p)

    p = sub.add_parser("surface", help="normal-space family of a surface")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, help="surface degree (ambient dimension 3 only)")
    p.add_argument("--K2", type=int, help="integral of K^2")
    p.add_argument("--c2", type=int, help="integral of c2 of the cotangent sheaf")
    p.add_argument("--KH", type=int, help="integral of K.H")
    p.add_argument("--H2", type=int, help="integral of H^2")

    p = sub.add_parser("hypersurface", help="normal lines of a hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("osculating", help="osculating developables and dual degrees of a curve")
    _add_curve_options(p)

    p = sub.add_parser("salmon", help="centro-surface reference values for a surface in 3-space")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("oracle", help="plane-curve evolute by resultant elimination")
    p.add_argument("--poly", required=True, help="curve polynomial in x and y, e.g. 'x**2/4 + y**2 - 1'")

    p = sub.add_parser("sweep", help="run a pipeline over parameter ranges")
    p.add_argument("target", choices=("curve", "surface", "hypersurface"))
    p.add_argument("--n", default="3", help="ambient dimension or range, e.g. 3 or 3..5")
    p.add_argument("--d", required=True, help="degree or range, e.g. 2..10")
    p.add_argument("--g", help="genus or range (curves only; default 0)")
    p.add_argument("--k0", help="cusp count or range (curves only; default 0)")

    p = sub.add_parser("selftest", help="reproduce the full verification grid")
    p.add_argument("--skip-oracle", action="store_true", help="skip the elimination checks")

    for name, p in sub.choices.items():
        # selftest has no CSV renderer
        formats = ("text", "json") if name == "selftest" else ("text", "json", "csv")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")
    return parser


# --------------------------------------------------------------------------
# runners
# --------------------------------------------------------------------------


def _run_report(report: EnumerativeReport, args: argparse.Namespace) -> int:
    _write(args, report, EnumerativeReport.to_dict, render_report_text, render_report_csv)
    return 0 if report.passed else 1


def _surface_numbers(args: argparse.Namespace) -> tuple[SurfaceChernNumbers, int | None]:
    explicit = [args.K2, args.c2, args.KH, args.H2]
    if args.d is not None:
        if any(v is not None for v in explicit):
            raise ValueError("give either --d or the four Chern numbers, not both")
        _require_three_space([args.n])
        return SurfaceChernNumbers.from_degree(args.d), args.d
    if any(v is None for v in explicit):
        raise ValueError("surface needs --d or all of --K2 --c2 --KH --H2")
    return SurfaceChernNumbers(args.K2, args.c2, args.KH, args.H2), None


def _require_three_space(ns: list[int]) -> None:
    """The surface degree shorthand (`surface --d`, `sweep surface`) names a
    smooth surface in 3-space, so it admits no other ambient dimension."""
    if any(n != 3 for n in ns):
        raise ValueError("the --d shorthand describes surfaces in 3-space")


def _run_sweep(args: argparse.Namespace) -> int:
    ns, ds = _parse_range("--n", args.n), _parse_range("--d", args.d)
    reports: list[EnumerativeReport]
    if args.target == "curve":
        gs = _parse_range("--g", "0" if args.g is None else args.g)
        k0s = _parse_range("--k0", "0" if args.k0 is None else args.k0)
        reports = [
            curve_report(CurveInvariants(n, d, g, (k0,)))
            for n in ns
            for d in ds
            for g in gs
            for k0 in k0s
        ]
    elif args.g is not None or args.k0 is not None:
        raise ValueError(f"--g and --k0 describe curves, not a {args.target} sweep")
    elif args.target == "surface":
        _require_three_space(ns)
        reports = [surface_report_from_degree(d) for _ in ns for d in ds]
    else:
        reports = [hypersurface_report(n, d) for n in ns for d in ds]

    _write(
        args,
        reports,
        lambda points: {"points": [r.to_dict() for r in points]},
        lambda points: "\n".join(map(render_report_text, points)),
        render_sweep_csv,
    )
    return 0 if all(r.passed for r in reports) else 1


def _run_selftest(args: argparse.Namespace) -> int:
    # imported here, like the oracle, so no other subcommand loads the battery
    from . import selftest

    results = selftest.run_battery(include_oracle=not args.skip_oracle)
    _write(args, results, _checks_payload, _checks_text)
    return 0 if all(ok for _, ok, _ in results) else 1


def _checks_payload(results: list[tuple[str, bool, str]]) -> dict:
    return {
        "checks": [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in results]
    }


def _checks_text(results: list[tuple[str, bool, str]]) -> str:
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in results]
    passed = sum(1 for _, ok, _ in results if ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def _run_oracle(args: argparse.Namespace) -> int:
    result = oracle.oracle_check(oracle.PlaneCurve.from_expr(args.poly))
    _write(args, result, oracle.EvoluteResult.to_dict, render_oracle_text, render_oracle_csv)
    return 0 if result.match is not False else 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.subcommand
    if cmd in ("curve", "osculating"):
        report = curve_report if cmd == "curve" else osculating_report
        return _run_report(report(CurveInvariants(args.n, args.d, args.g, _stationary(args))), args)
    if cmd == "surface":
        numbers, degree = _surface_numbers(args)
        return _run_report(surface_report(args.n, numbers, degree), args)
    if cmd == "hypersurface":
        return _run_report(hypersurface_report(args.n, args.d), args)
    if cmd == "salmon":
        return _run_report(salmon_reference_report(args.d), args)
    if cmd == "oracle":
        return _run_oracle(args)
    if cmd == "sweep":
        return _run_sweep(args)
    if cmd == "selftest":
        return _run_selftest(args)
    raise ValueError(f"unknown subcommand {cmd!r}")


def _argv_from_config(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if "subcommand" not in config:
        raise ValueError("config must name a subcommand")
    argv = [str(config.pop("subcommand"))]
    target = config.pop("target", None)
    if target:
        argv.append(str(target))
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """`parser.parse_args(argv)`, with one pass where argv opens with a
    subcommand's name: the top-level parser would classify every token, then
    hand all of them to that subcommand's parser, which raises the same
    errors itself.  A leftover token gets the top-level parser's own error."""
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(
        argv[1:], argparse.Namespace(config=None, subcommand=argv[0])
    )
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        if args.config:
            if args.subcommand:
                parser.error("give either --config or a subcommand, not both")
            args = parser.parse_args(_argv_from_config(args.config))
        if not args.subcommand:
            parser.print_help()
            return 2
        return _dispatch(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
