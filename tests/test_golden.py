"""Replay fixed CLI invocations against their recorded stdout, stderr and exit code.

`golden/cases.json` maps each case name to its argv, exit code and stderr;
`golden/<name>.out` holds the exact stdout.  An argparse exit counts with
its `SystemExit` code, and help is wrapped at 80 columns, as when recorded.  Oracle cases eliminate through
the session-wide `shared_oracle_check`, so the plane cubic is eliminated once,
and selftest cases read each check's result from the session-wide
`battery_result`, so no check runs twice.
"""

import json
from pathlib import Path

import pytest

from evolute import cli, oracle, selftest

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys, monkeypatch, shared_oracle_check, battery_result):
    monkeypatch.setattr(oracle, "oracle_check", shared_oracle_check)
    monkeypatch.setattr(
        selftest,
        "run_battery",
        lambda include_oracle=True: [
            battery_result(check)
            for check in selftest.BATTERY
            if include_oracle or check is not selftest.check_oracle
        ],
    )
    monkeypatch.setenv("COLUMNS", "80")
    case = CASES[name]
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert (err, code) == (case["stderr"], case["exit"])
