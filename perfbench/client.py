"""Closed-loop client: one fresh interpreter, one operation at a time.

Reads a job from standard input as JSON, imports `evolute.cli` from the
given source tree and calls `evolute.cli.main(argv)` for each operation
with standard output captured in memory.  The next operation starts only
after the previous one returned.  Each output is checked right after its
operation, outside the timed interval, and the results go to standard
output as one JSON object.

Untraced job: whole passes over the input set until another pass would not
fit in `seconds` (at least one), with the host-speed gauge (gauge.py)
sampling throughout; each pass reports its operation times as measured and
scaled to the gauge's reference speed.  Traced job, without the gauge: one
untraced pass, then one traced pass over the same inputs.  The outputs of
the two must be identical byte for byte; the ratio of their operation
times is the tracing overhead.
Three passes would cancel a drift in host speed, but the oracle workload
could then overrun the time limit of a run on a slow host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
from gauge import Gauge  # noqa: E402


def run_op(
    cli, argv: tuple[str, ...], gauge: Gauge | None = None
) -> tuple[float, str, str | None]:
    """One CLI invocation: (seconds, captured stdout, problem or None).
    Time spent in the gauge's kernel during the call is not counted."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    spent = gauge.spent if gauge is not None else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if gauge is not None:
        elapsed -= gauge.spent - spent
    text = out.getvalue()
    problem = error or checker.check(argv, code, text)
    if problem is not None and err.getvalue():
        problem += f" ({err.getvalue().strip()})"
    return elapsed, text, problem


def run_pass(cli, ops, tracer=None, gauge=None) -> dict:
    """Run every operation once; returns latencies, failures and digests,
    and with a gauge the (start, end) interval of each operation."""
    _clear_sympy_cache()
    latencies, failures, digests, intervals = [], [], [], []
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        started = time.perf_counter()
        elapsed, text, problem = run_op(cli, argv, gauge)
        intervals.append((started, time.perf_counter()))
        if problem is not None:
            failures.append({"op": i, "argv": list(argv), "problem": problem})
        elif tracer is not None and argv[0] == "oracle":
            tracer.counters["oracle.final_degree"] += json.loads(text)["degree"]
        latencies.append(elapsed)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    result = {"latencies": latencies, "failures": failures, "digests": digests}
    if gauge is not None:
        result["intervals"] = intervals
    return result


def _clear_sympy_cache() -> None:
    # passes repeat their inputs; start each from the same (empty) cache
    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache

        clear_cache()


def run_job(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import evolute.cli as cli

    ops = [tuple(op) for op in job["ops"]]
    result = {"warmup_problem": run_op(cli, tuple(job["warmup"]))[2], "passes": []}

    if not job["trace"]:
        gauge = Gauge()
        gauge.start()
        try:
            begin = time.perf_counter()
            while True:
                started = time.perf_counter()
                result["passes"].append(run_pass(cli, ops, gauge=gauge))
                now = time.perf_counter()
                if now - begin + (now - started) > job["seconds"]:
                    break
        finally:
            gauge.stop()
        for p in result["passes"]:
            intervals = p.pop("intervals")
            p["scaled"] = [t * gauge.scale(*span) for t, span in zip(p["latencies"], intervals)]
        result["gauge"] = gauge.summary()
    else:
        from tracer import Tracer

        plain = run_pass(cli, ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        result["passes"] = [plain, traced]
        layers = tracer.summary()
        layers["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write(Path(job["spans_path"]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    outcome = run_job(json.load(sys.stdin))
    sys.stdout.write(json.dumps(outcome) + "\n")
