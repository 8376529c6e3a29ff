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
renderers import `csv` themselves, so no other format loads it.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys
from collections.abc import Sequence
from functools import cache

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
    engine subcommands skip its definitions and imports (sympy is imported
    by its fallbacks alone, not when it loads).  The module is registered
    in `sys.modules` at once, where instrumentation looks for it.

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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def render_report_csv(report: EnumerativeReport) -> str:
    """Long form: one row per locus."""
    import csv

    buffer = io.StringIO()
    base = _flat_input(report)
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(base) + ["locus", "k", "engine_degree", "closed_form", "match"])
    for r in report.results:
        writer.writerow(
            list(base.values())
            + [r.locus, r.k if r.k is not None else "", r.engine_degree,
               r.closed_form if r.closed_form is not None else "",
               "" if r.match is None else r.match]
        )
    return buffer.getvalue()


def render_sweep_csv(reports: list[EnumerativeReport]) -> str:
    """Wide form: one row per parameter point."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    input_keys: list[str] = []
    for report in reports:
        for key in _flat_input(report):
            if key not in input_keys:
                input_keys.append(key)
    max_k = max((r.k or 0) for report in reports for r in report.results)
    value_keys = []
    for k in range(1, max_k + 1):
        value_keys += [f"k{k}_engine", f"k{k}_closed"]
    writer.writerow(input_keys + value_keys + ["all_match"])
    for report in reports:
        flat = _flat_input(report)
        row = [flat.get(key, "") for key in input_keys]
        by_k = {r.k: r for r in report.results if r.k is not None}
        for k in range(1, max_k + 1):
            r = by_k.get(k)
            row += ["" if r is None else r.engine_degree,
                    "" if r is None or r.closed_form is None else r.closed_form]
        row.append(report.passed)
        writer.writerow(row)
    return buffer.getvalue()


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
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["degree", "expected_degree", "match", "flags", "polynomial"])
    writer.writerow(
        [result.degree, result.expected_degree,
         "" if result.match is None else result.match,
         ";".join(result.flags), result.text]
    )
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write(args: argparse.Namespace, value, payload, text, table=None) -> None:
    """Emit `value` in the chosen format: the JSON of payload(value),
    text(value) or the CSV table(value); only the chosen renderer runs."""
    if args.format == "json":
        rendered = render_json(payload(value))
    elif args.format == "csv":
        rendered = table(value)
    else:
        rendered = text(value)
    _emit(rendered, args.out)


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
    ks = []
    for i in range(5):
        ks.append(getattr(args, f"k{i}", 0) or 0)
    while ks and ks[-1] == 0:
        ks.pop()
    return tuple(ks)


def _add_output_options(
    parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json", "csv")
) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")


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

    p = sub.add_parser("curve", help="normal-space family of a curve")
    _add_curve_options(p)
    _add_output_options(p)

    p = sub.add_parser("surface", help="normal-space family of a surface")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, help="surface degree (ambient dimension 3 only)")
    p.add_argument("--K2", type=int, help="integral of K^2")
    p.add_argument("--c2", type=int, help="integral of c2 of the cotangent sheaf")
    p.add_argument("--KH", type=int, help="integral of K.H")
    p.add_argument("--H2", type=int, help="integral of H^2")
    _add_output_options(p)

    p = sub.add_parser("hypersurface", help="normal lines of a hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_output_options(p)

    p = sub.add_parser("osculating", help="osculating developables and dual degrees of a curve")
    _add_curve_options(p)
    _add_output_options(p)

    p = sub.add_parser("salmon", help="centro-surface reference values for a surface in 3-space")
    p.add_argument("--d", type=int, required=True)
    _add_output_options(p)

    p = sub.add_parser("oracle", help="plane-curve evolute by resultant elimination")
    p.add_argument("--poly", required=True, help="curve polynomial in x and y, e.g. 'x**2/4 + y**2 - 1'")
    p.add_argument("--g", type=int, help="declared genus (default: smooth plane-curve genus)")
    p.add_argument("--k0", type=int, default=0, help="declared weighted cusp count")
    _add_output_options(p)

    p = sub.add_parser("sweep", help="run a pipeline over parameter ranges")
    p.add_argument("target", choices=("curve", "surface", "hypersurface"))
    p.add_argument("--n", default="3", help="ambient dimension or range, e.g. 3 or 3..5")
    p.add_argument("--d", required=True, help="degree or range, e.g. 2..10")
    p.add_argument("--g", default="0", help="genus or range (curves)")
    p.add_argument("--k0", default="0", help="cusp count or range (curves)")
    _add_output_options(p)

    p = sub.add_parser("selftest", help="reproduce the full verification grid")
    p.add_argument("--skip-oracle", action="store_true", help="skip the elimination checks")
    _add_output_options(p, ("text", "json"))

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
        gs, k0s = _parse_range("--g", args.g), _parse_range("--k0", args.k0)
        reports = [
            curve_report(CurveInvariants(n, d, g, (k0,)))
            for n in ns
            for d in ds
            for g in gs
            for k0 in k0s
        ]
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
    curve = oracle.PlaneCurve.from_expr(args.poly, genus=args.g, cusps=args.k0)
    result = oracle.oracle_check(curve)
    _write(args, result, oracle.EvoluteResult.to_dict, render_oracle_text, render_oracle_csv)
    return 0 if result.match is not False else 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.subcommand
    if cmd == "curve":
        inv = CurveInvariants(args.n, args.d, args.g, _stationary(args))
        return _run_report(curve_report(inv), args)
    if cmd == "surface":
        numbers, degree = _surface_numbers(args)
        return _run_report(surface_report(args.n, numbers, degree), args)
    if cmd == "hypersurface":
        return _run_report(hypersurface_report(args.n, args.d), args)
    if cmd == "osculating":
        inv = CurveInvariants(args.n, args.d, args.g, _stationary(args))
        return _run_report(osculating_report(inv), args)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
