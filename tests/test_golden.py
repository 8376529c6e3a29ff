"""Replay fixed CLI invocations against their recorded stdout, stderr and exit code.

`golden/cases.json` maps each case name to its argv, exit code and stderr;
`golden/<name>.out` holds the exact stdout.
"""

import json
from pathlib import Path

import pytest

from evolute.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    case = CASES[name]
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert (err, code) == (case["stderr"], case["exit"])
