import csv
import io
import json

import pytest

from evolute.cli import main, render_json, render_sweep_csv
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


def test_oracle_cli(capsys):
    code, out, _ = run(capsys, "oracle", "--poly", "x**2/4 + y**2 - 1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 6 and payload["match"] is True


def test_oracle_cli_degenerate_input(capsys):
    code, _, err = run(capsys, "oracle", "--poly", "x")
    assert code == 2
    assert "curvature" in err


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


def test_config_and_subcommand_conflict(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--config", "whatever.json", "salmon", "--d", "2"])
    assert err.value.code == 2


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
