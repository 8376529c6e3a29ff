"""Benchmark of the evolute CLI: one seeded workload per run.

    python3 perfbench/run.py --workload engine_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and uses the package in `src/`.
The workload's operations go to `evolute.cli.main(argv)` in one fresh
interpreter (perfbench/client.py), a closed loop with a single client.
Every output is checked against closed forms recomputed in
perfbench/checker.py.  With `--trace 0` the last line reports the
end-to-end metrics, times scaled to the reference speed of the host-speed
gauge (perfbench/gauge.py); with `--trace 1` it reports the per-layer metrics of a
traced pass (perfbench/tracer.py).  The line before it holds the
environment, the input-set statistics, the latency sample counts and the
times as measured.
Exit status: 0 when every operation passed, 1 when any failed, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 6  # before the client and again after it
CHILD_TIMEOUT_S = 170
TAIL_SAMPLES_ABOVE = 10


def setup_seconds() -> list[tuple[float, float]]:
    """Launch-to-ready times of fresh interpreters importing evolute.cli:
    (as measured, scaled to the gauge's reference speed)."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        reading = json.loads(probe.stdout.splitlines()[-1])
        seconds = reading["ready"] - launched
        samples.append((seconds, seconds * reading["scale"]))
    return samples


def run_client(job: dict) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "client.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"client exited with code {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it,
    and that percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 1 - TAIL_SAMPLES_ABOVE)
    return ordered[index], 100 * (index + 1) / len(ordered)


def run_tail(pass_latencies: list[list[float]]) -> tuple[float, float, str]:
    """Tail latency of a run, its percentile, and what it was taken over.
    When a pass has more than ten operations, the tail is that of each pass
    and the run reports the median over passes: over a whole run of
    thousands of operations the tail sits in the top 0.3 %, which holds
    garbage collections and host stalls that land on random operations
    rather than the cost of the slowest inputs."""
    if len(pass_latencies[0]) > TAIL_SAMPLES_ABOVE:
        tails = [tail(p) for p in pass_latencies]
        return statistics.median(t for t, _ in tails), tails[0][1], "pass"
    latency, percentile = tail([t for p in pass_latencies for t in p])
    return latency, percentile, "run"


def environment() -> dict:
    try:
        import sympy

        sympy_version = sympy.__version__
    except ImportError:
        sympy_version = None
    try:
        import gmpy2  # noqa: F401

        gmpy2_present = True
    except ImportError:
        gmpy2_present = False
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "gmpy2": gmpy2_present,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evolute" / "cli.py").is_file():
        print(f"perfbench: no evolute sources under {SRC}", file=sys.stderr)
        return 2

    workload = generate(args.workload, args.seed)
    job = {
        "src": str(SRC),
        "ops": workload.ops,
        "warmup": workload.warmup,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans_path": str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"),
    }
    # host speed drifts over tens of seconds, so set-up is sampled on both
    # sides of the timed phase
    setup = [] if args.trace else setup_seconds()
    result = run_client(job)
    if not args.trace:
        setup += setup_seconds()

    passes = result["passes"]
    latencies = [t for p in passes for t in p["latencies"]]
    failures = [f for p in passes for f in p["failures"]]
    if result["warmup_problem"]:
        failures.append({"op": "warmup", "problem": result["warmup_problem"]})
    if args.trace and any(p["digests"] != passes[0]["digests"] for p in passes):
        failures.append({"op": "trace", "problem": "traced outputs differ from untraced ones"})
    attempted = len(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "input_set": workload.stats(),
        "pass_seconds": [sum(p["latencies"]) for p in passes],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
    }

    if args.trace:
        info["spans"] = result["spans"]
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["layers"].items()
        }
    else:
        _, tail_pct, tail_over = run_tail([p["scaled"] for p in passes])
        info.update(
            latency_samples=attempted,
            tail_percentile=tail_pct,
            tail_over=tail_over,
            setup_samples_s=[raw for raw, _ in setup],
            gauge=result["gauge"],
            as_measured=timing_metrics(
                [p["latencies"] for p in passes], [raw for raw, _ in setup]
            ),
        )
        metrics = timing_metrics([p["scaled"] for p in passes], [s for _, s in setup])
        metrics = {name: {"value": value, "unit": METRIC_UNITS[name]}
                   for name, value in metrics.items()}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    print("perfbench-info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


METRIC_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def timing_metrics(pass_latencies: list[list[float]], setup: list[float]) -> dict:
    latencies = [t for p in pass_latencies for t in p]
    per_pass = [len(p) / sum(p) for p in pass_latencies]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(per_pass),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * run_tail(pass_latencies)[0],
    }


def unit_of(metric: str) -> str:
    if metric.endswith((".ms", "_ms")):
        return "ms"
    if metric.endswith("ratio"):
        return "ratio"
    if metric == "oracle.sample_bits_max":
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
