import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import evolute
from evolute import chow, cli, oracle, pipelines, polyparse, ring, thom
from evolute.cli import build_parser, main, render_json, render_sweep_csv
from evolute.pipelines import (
    EnumerativeReport,
    IdentityResult,
    LocusResult,
    curve_report,
)
from evolute.varieties import CurveInvariants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_text_output(capsys):
    code, out, _ = run(capsys, "curve", "--n", "3", "--d", "3", "--g", "0", "--k0", "0")
    assert code == 0
    assert "envelope" in out and "12" in out and "15" in out and "16" in out
    assert "[ok]" in out


def test_curve_json_round_trip(capsys):
    code, out, _ = run(capsys, "curve", "--n", "3", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out  # byte-identical re-serialization
    degrees = {r["k"]: r["engine_degree"] for r in payload["results"]}
    assert degrees == {1: 12, 2: 15, 3: 16}
    assert all(r["match"] for r in payload["results"])
    assert payload["citations"]


def test_hypersurface_example(capsys):
    code, out, _ = run(capsys, "hypersurface", "--n", "4", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    evolute = next(r for r in payload["results"] if "evolute" in r["locus"])
    assert evolute["engine_degree"] == 18


def test_surface_csv_single(capsys):
    code, out, _ = run(capsys, "surface", "--d", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4  # header + three loci
    assert rows[0][-5:] == ["locus", "k", "engine_degree", "closed_form", "match"]


def test_surface_requires_complete_numbers(capsys):
    code, _, err = run(capsys, "surface", "--K2", "8")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv", [["surface", "--n", "4", "--d", "2"], ["sweep", "surface", "--n", "3..4", "--d", "2"]]
)
def test_degree_shorthand_needs_three_space(capsys, argv):
    # one check of --n for both paths, before any report is built
    assert run(capsys, *argv) == (2, "", "error: the --d shorthand describes surfaces in 3-space\n")


def test_surface_chern_numbers_input(capsys):
    code, out, _ = run(
        capsys,
        "surface", "--n", "3", "--K2", "8", "--c2", "4", "--KH", "-4", "--H2", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["engine_degree"] == 12


def test_sweep_surface_csv(capsys):
    code, out, _ = run(capsys, "sweep", "surface", "--d", "2..10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 10  # header + nine degrees
    header = rows[0]
    engine_cols = [i for i, name in enumerate(header) if name.endswith("_engine")]
    closed_cols = [i for i, name in enumerate(header) if name.endswith("_closed")]
    for row in rows[1:]:
        for e_col, c_col in zip(engine_cols, closed_cols):
            assert row[e_col] == row[c_col]


def test_sweep_curve_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "curve", "--n", "3", "--d", "2..4", "--g", "0..1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 6


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sweep_empty_range_rejected(capsys, fmt):
    code, out, err = run(capsys, "sweep", "curve", "--d", "3..1", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "--d 3..1 is an empty range" in err


@pytest.mark.parametrize(("flag", "value"), [("--g", "a"), ("--n", "3.."), ("--k0", "1..3,5")])
def test_sweep_range_error_names_the_flag(capsys, flag, value):
    assert run(capsys, "sweep", "curve", "--d", "2", flag, value) == (
        2,
        "",
        f"error: {flag} expects an integer, a list a,b,c or a range lo..hi, got {value!r}\n",
    )


@pytest.mark.parametrize("target", ["surface", "hypersurface"])
@pytest.mark.parametrize("flag", ["--g", "--k0"])
def test_sweep_refuses_curve_options_elsewhere(capsys, target, flag):
    # they were ignored, and the g = 0 rows came back with exit 0
    assert run(capsys, "sweep", target, "--n", "3", "--d", "2", flag, "0") == (
        2, "", f"error: --g and --k0 describe curves, not a {target} sweep\n"
    )


def test_oracle_cli(capsys):
    code, out, _ = run(capsys, "oracle", "--poly", "x**2/4 + y**2 - 1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 6 and payload["match"] is True


def test_oracle_cli_degenerate_input(capsys):
    code, _, err = run(capsys, "oracle", "--poly", "x")
    assert code == 2
    assert "curvature" in err


@pytest.mark.parametrize("flag, value", [("--g", "0"), ("--k0", "1")])
def test_oracle_refuses_declared_invariants(capsys, flag, value):
    # the genus and the cusps are read off the curve: the options are gone
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--poly", "x**3 + y**3 - 3*x*y", flag, value])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} {value}" in err_text


@pytest.mark.parametrize(
    "poly",
    [
        "sin(x)", "x @ y", "x % 2", "~x", "not x", "x < y", "(x := 1)", "'a'", "x**y",
        # a foreign name beside foreign syntax: the syntax is named first
        "z + sin(w)", "x if y else 1", "[x]", "x.real",
    ],
)
def test_rejected_input_messages(capsys, poly):
    assert run(capsys, "oracle", "--poly", poly) == (
        2, "", "error: curve must be a polynomial in x and y\n"
    )


def test_oversized_integer_literal_exits_two_at_once(capsys):
    # 10**1300 written out as 1 301 digits is refused before any elimination,
    # as 1e1300 is; the oracle ran past 120 s on it when it was read
    started = time.monotonic()
    code, out, err = run(capsys, "oracle", "--poly", f"x**2 + 2*y**2 - {10**1300}")
    assert time.monotonic() - started < 10
    assert (code, out) == (2, "")
    assert err == f"error: {polyparse.TOO_LARGE}\n"


@pytest.mark.parametrize(
    "poly, prediction",
    [
        # a conic with a 4 001-bit coefficient, under the literal cap: 120
        # discriminant samples of ~112 000 bits; it ran for over 6 minutes
        # when it was not refused
        (
            f"x**2 + {2**4000 + 12345}*y**2 + x*y - 3*x + 2*y - 7",
            "120 discriminant samples of ~112028 bits, work 1.5e+12",
        ),
        # degree 24, at the degree cap: T = 1151 * 24
        ("x**24 + y**24 + x*y - 1", "381584125 discriminant samples of ~55248 bits, work 1.2e+18"),
    ],
    ids=["conic_4000_bits", "degree_24"],
)
def test_costly_curve_exits_two_at_once(capsys, poly, prediction):
    started = time.monotonic()
    code, out, err = run(capsys, "oracle", "--poly", poly)
    assert time.monotonic() - started < 10
    assert (code, out) == (2, "")
    assert err == (
        f"error: curve too costly to eliminate: predicted {prediction} > budget "
        f"{oracle.MAX_WORK:.0e}\n"
    )


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "curve", "--n", "3", "--d", "0")
    assert code == 2
    assert "error" in err


def test_unsupported_codimension_exit_two(capsys):
    # the evolute of a curve in 7-space is a 6-fold locus, out of range
    code, _, err = run(capsys, "curve", "--n", "7", "--d", "8")
    assert code == 2
    assert "codimension" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "curve", "--d", "3", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["input"]["degree"] == 3


def test_unwritable_out_file_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "curve", "--d", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


def test_missing_config_file_exit_two(tmp_path, capsys):
    config = tmp_path / "missing.json"
    code, out, err = run(capsys, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(config) in err


@pytest.mark.parametrize("payload", [["subcommand"], "subcommand"], ids=["list", "string"])
def test_config_not_an_object_exit_two(tmp_path, capsys, payload):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload))
    assert run(capsys, "--config", str(config)) == (2, "", "error: config must be a JSON object\n")


def test_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"subcommand": "hypersurface", "n": 3, "d": 2, "format": "json"}))
    code, out, _ = run(capsys, "--config", str(config))
    assert code == 0
    assert json.loads(out)["results"][0]["engine_degree"] == 12


def test_config_with_list_range(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"subcommand": "sweep", "target": "surface", "d": [2, 5, 7], "format": "csv"})
    )
    code, out, _ = run(capsys, "--config", str(config))
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + three degrees


@pytest.mark.parametrize("skip", [True, False])
def test_config_boolean_is_a_flag(tmp_path, capsys, monkeypatch, skip):
    # a true JSON boolean becomes its bare flag, a false one is left out
    from evolute import selftest

    calls = []

    def battery(include_oracle=True):
        calls.append(include_oracle)
        return [("stub", True, "")]

    monkeypatch.setattr(selftest, "run_battery", battery)
    config = tmp_path / "selftest.json"
    config.write_text(json.dumps({"subcommand": "selftest", "skip_oracle": skip, "format": "json"}))
    code, out, _ = run(capsys, "--config", str(config))
    assert (code, calls) == (0, [not skip])
    assert json.loads(out) == {"checks": [{"name": "stub", "passed": True, "detail": ""}]}


def test_bare_invocation_prints_help_and_exits_two(capsys):
    code, out, err = run(capsys)
    assert (code, err) == (2, "")
    assert out.startswith("usage: ") and "selftest" in out


def test_parser_built_once(capsys):
    assert build_parser() is build_parser()
    # parsing leaves the shared parser as it was
    assert run(capsys, "curve", "--d", "3", "--g", "1")[0] == 0
    assert build_parser().parse_args(["curve", "--d", "3"]).g == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--d", "3"],
        ["surface", "--d", "2"],
        ["hypersurface", "--n", "4", "--d", "2"],
        ["osculating", "--n", "4", "--d", "4"],
        ["salmon", "--d", "2"],
        ["sweep", "hypersurface", "--d", "2..3"],
    ],
    ids=lambda argv: argv[0],
)
def test_engine_subcommands_leave_sympy_unloaded(argv):
    # a fresh interpreter: this one has long imported sympy; the oracle's
    # parser and univariate algebra stay unloaded with it, the integral
    # engine never imports `fractions` (the parser does), and loading the
    # oracle module does not import sympy either
    script = (
        "import sys, evolute.cli as cli\n"
        f"cli.main({argv + ['--format', 'csv']!r})\n"
        "print(sorted({'evolute.intpoly', 'evolute.polyparse'} & set(sys.modules)))\n"
        "print('fractions' in sys.modules)\n"
        "print('sympy' in sys.modules, cli.oracle.PlaneCurve.__name__)\n"
        "print('sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(evolute.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.endswith("[]\nFalse\nFalse PlaneCurve\nFalse\n")


# golden oracle cases that the integer certificates decide end to end
COMMON_PATH = (
    "oracle_ellipse_json", "oracle_cubic_json", "oracle_folium_json",
    "oracle_wide_conic_json", "oracle_rational_cubic_json",
)


def test_oracle_common_path_leaves_sympy_unloaded():
    # a fresh interpreter runs the golden curves through `main`, prints each
    # exit code and report, and then whether sympy was ever imported
    golden = Path(__file__).parent / "golden"
    cases = json.loads((golden / "cases.json").read_text(encoding="utf-8"))
    script = (
        "import contextlib, io, json, sys, evolute.cli as cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([code, out.getvalue()]))\n"
        "print('sympy' in sys.modules)\n"
    )
    argvs = json.dumps([cases[name]["argv"] for name in COMMON_PATH])
    env = {**os.environ, "PYTHONPATH": str(Path(evolute.__file__).parents[1])}
    lines = subprocess.run(
        [sys.executable, "-c", script, argvs], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert lines[-1] == "False"
    for name, line in zip(COMMON_PATH, lines[:-1], strict=True):
        assert json.loads(line) == [0, (golden / f"{name}.out").read_text(encoding="utf-8")]


def test_non_integer_locus_degree_exits_three(capsys, monkeypatch):
    # the class ring holds ints only, so a rational Thom coefficient is
    # refused where it enters the engine, not carried into a degree
    monkeypatch.setitem(thom.COEFFICIENTS, 1, (((1, 0, 0, 0), Fraction(1, 2)),))
    pipelines._compiled_classes.cache_clear()
    code, out, err = run(capsys, "curve", "--d", "3")
    assert (code, out) == (3, "")
    assert err == "internal error: unsupported operand type(s) for *: 'Fraction' and 'GradedClass'\n"


def test_inexact_interpolation_exits_three(capsys, monkeypatch):
    # one grid sample off by one: the Newton divided differences turn fractional
    exact, calls = oracle.dup_resultant, []

    def perturbed(f, g):
        calls.append(f)
        return exact(f, g) + (len(calls) == 2)

    monkeypatch.setattr(oracle, "dup_resultant", perturbed)
    code, out, err = run(capsys, "oracle", "--poly", "x**2/4 + y**2 - 1")
    assert (code, out) == (3, "")
    assert err == "internal error: interpolated samples are not an integer polynomial\n"


def test_inconclusive_elimination_exits_three(capsys, monkeypatch):
    def inconclusive(system):
        raise oracle.InconclusiveEliminationError("every factor was extraneous")

    monkeypatch.setattr(oracle, "eliminate", inconclusive)
    code, out, err = run(capsys, "oracle", "--poly", "x**2/4 + y**2 - 1")
    assert (code, out) == (3, "")
    assert err == "internal error: every factor was extraneous\n"


def test_internal_lookup_error_exits_three(capsys, monkeypatch):
    # no input path raises a LookupError, so one is an internal fault, not bad input
    def lookup_fault(inv):
        raise KeyError((1, 0))

    monkeypatch.setattr(cli, "curve_report", lookup_fault)
    assert run(capsys, "curve", "--d", "3") == (3, "", "internal error: (1, 0)\n")


@pytest.mark.parametrize(
    "error",
    [ring.TableMismatchError, ring.NotInvertibleError, chow.IncompleteDescriptorError],
    ids=lambda error: error.__name__,
)
def test_engine_invariant_errors_exit_three(capsys, monkeypatch, error):
    # ValueErrors that only a broken engine invariant raises: a fault, not bad input
    def fault(inv):
        raise error("broken invariant")

    monkeypatch.setattr(cli, "curve_report", fault)
    assert run(capsys, "curve", "--d", "3") == (3, "", "internal error: broken invariant\n")


COLD_START_CHECK = """
import sys
import evolute.cli as cli
print(sorted({"dataclasses", "inspect", "dis", "tokenize", "ast", "csv"} & set(sys.modules)))
cli.main(["oracle", "--poly", "x**2/4 + y**2 - 1"])
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_cold_start_imports():
    # a fresh interpreter, without `site` (whose .pth files may import any
    # of these): importing the command line loads none of the modules that
    # `dataclasses` and `csv` pulled in, and the oracle's common path adds
    # only the parser's `ast`
    env = {**os.environ, "PYTHONPATH": str(Path(evolute.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START_CHECK],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert (out[0], out[-1]) == ("[]", "[]")


def test_config_and_subcommand_conflict(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--config", "whatever.json", "salmon", "--d", "2"])
    assert err.value.code == 2


def test_selftest_offers_no_csv(capsys):
    # selftest has no CSV renderer, so argparse refuses the format before
    # any check runs
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--skip-oracle", "--format", "csv"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and "invalid choice: 'csv'" in err_text


def test_exit_one_on_mismatch(capsys):
    # exit status must follow the match flags; fabricate a failing report
    from evolute.cli import _run_report
    import argparse

    report = EnumerativeReport(
        input={"kind": "curve"},
        results=(LocusResult("envelope", 1, 12, 13, False),),
        identities=(IdentityResult("x", 1, 2, False),),
        citations=(),
        flags=(),
    )
    args = argparse.Namespace(format="text", out=None)
    assert _run_report(report, args) == 1
    capsys.readouterr()


def test_sweep_csv_renderer_direct():
    reports = [curve_report(CurveInvariants(3, d, 0)) for d in (2, 3)]
    text = render_sweep_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0][-1] == "all_match"
