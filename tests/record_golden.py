"""Re-record golden CLI cases: python tests/record_golden.py NAME...

Each named case of `golden/cases.json` runs through `cli.main` in-process,
as `test_golden.py` replays it; its stdout goes to `golden/<name>.out` and
its exit code and stderr into `cases.json`.  An argparse exit (`-h`, a usage
error) is caught and its `SystemExit` code recorded as the exit code; help
is wrapped at 80 columns, whatever the terminal.  The names whose recording
changed are printed.  With no names nothing is written, every case whose
output differs from its recording is listed, and the exit status is 1 if
any is, 0 if none is, so the check can gate a commit or a CI job.  A new
case is added by giving its argv in `cases.json` first.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evolute import cli  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
CASES_PATH = GOLDEN / "cases.json"


def run(argv: list[str]) -> tuple[str, str, int]:
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def recorded(name: str, case: dict) -> tuple[str, str, int | None]:
    path = GOLDEN / f"{name}.out"
    out = path.read_bytes().decode("utf-8") if path.exists() else None
    return out, case.get("stderr"), case.get("exit")


def main(names: list[str]) -> int:
    cases = json.loads(CASES_PATH.read_text(encoding="utf-8"))
    unknown = [name for name in names if name not in cases]
    if unknown:
        print(f"unknown cases: {', '.join(unknown)}", file=sys.stderr)
        return 2
    differ = False
    for name in names or sorted(cases):
        out, err, code = run(cases[name]["argv"])
        if (out, err, code) == recorded(name, cases[name]):
            continue
        differ = True
        print(name)
        if names:
            (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
            cases[name].update(exit=code, stderr=err)
    if names:
        CASES_PATH.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    return int(differ and not names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
