"""Tests of the benchmark itself: seeded inputs, the checker, the tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import client  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import evolute.cli as cli  # noqa: E402

CONIC = ("oracle", "--poly", workloads.curve_text({(2, 0): 3, (1, 1): -1, (0, 2): 2,
                                                    (1, 0): 1, (0, 1): -2, (0, 0): -4}),
         "--format", "json")
SAMPLE = (
    ("curve", "--n", "4", "--d", "7", "--g", "2", "--k0", "1", "--format", "json"),
    ("surface", "--d", "5", "--format", "json"),
    ("surface", "--n", "5", "--K2=-3", "--c2=20", "--KH=4", "--H2=6", "--format", "json"),
    ("hypersurface", "--n", "6", "--d", "4", "--format", "json"),
    ("salmon", "--d", "7", "--format", "json"),
    ("osculating", "--n", "5", "--d", "8", "--g", "1", "--k0", "1", "--k2", "2",
     "--format", "json"),
    CONIC,
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv_lists(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first.ops != workloads.generate(name, 8).ops
    assert first.stats()["ops_per_pass"] == len(first.ops)


def test_workload_mix_is_fixed_across_seeds():
    def mix(seed):
        return sorted((op[0], workloads.ambient(op)) for op in
                      workloads.generate("engine_sweep", seed).ops)

    assert mix(1) == mix(2)


def test_checker_accepts_real_outputs_and_flags_tampered_degrees():
    for argv in SAMPLE:
        _, text, problem = client.run_op(cli, argv)
        assert problem is None, (argv, problem)
        report = json.loads(text)
        if argv[0] == "oracle":
            report["degree"] += 1
        else:
            rows = report["results"]
            row = rows[0] if argv[0] == "salmon" else next(r for r in rows if r["k"] == 1)
            row["engine_degree"] += 2
            row["closed_form"] = row["engine_degree"]
            row["match"] = True
        assert checker.check(argv, 0, json.dumps(report)) is not None, argv


def test_checker_flags_exit_codes_and_non_json():
    assert checker.check(SAMPLE[0], 1, "{}") == "exit code 1"
    assert checker.check(SAMPLE[0], 0, "not json") == "output is not JSON"


def test_oracle_inputs_pass_the_input_property_filter_only():
    w = workloads.generate("oracle_plane", 3)
    degrees = sorted(checker.expected_degrees(op)["degree"] for op in w.ops)
    assert degrees == [6] * workloads.ORACLE_CONICS + [18] * workloads.ORACLE_CUBICS
    assert not workloads.acceptable_curve({(2, 0): 1, (0, 2): 1, (0, 0): -1}, 2)  # circle
    assert not workloads.acceptable_curve({(2, 0): 1, (0, 1): -1}, 2)  # parabola
    assert not workloads.acceptable_curve({(2, 0): 1, (0, 2): -1}, 2)  # crossing lines


def test_traced_outputs_are_byte_identical_and_counters_repeat():
    plain = client.run_pass(cli, SAMPLE)
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = client.run_pass(cli, SAMPLE, tracer)
        finally:
            tracer.uninstall()
        assert traced["digests"] == plain["digests"]
        assert not traced["failures"]
        summaries.append(tracer.summary())
    assert cli.main.__module__ == "evolute.cli" and not hasattr(cli.main, "__wrapped__")
    counters = [m for m in summaries[0] if not m.endswith("ms")]
    assert {m: summaries[0][m] for m in counters} == {m: summaries[1][m] for m in counters}
    first = summaries[0]
    assert first["oracle.stage2_degree"] > 0 and first["oracle.grid_points"] > 0
    assert 0 < first["bundle.virtual_useful_ratio"] < 1
    assert first["pipelines.sigma_degree.calls"] > 0 and first["ring.mul.term_pairs"] > 0


def test_gauge_scale_averages_the_samples_near_an_operation():
    g = gauge.Gauge()
    ref = gauge.REFERENCE_S
    g.samples = [(0.0, ref), (1.0, ref / 2), (10.0, 4 * ref)]
    assert g.scale(0.2, 0.8) == pytest.approx(1.5)  # the two samples within 0.5 s
    assert g.scale(10.0, 10.0) == pytest.approx(0.25)
    assert g.scale(5.0, 5.0) == pytest.approx((1 + 2 + 0.25) / 3)  # none near: whole run


def test_gauge_time_is_not_charged_to_the_operation():
    g = gauge.Gauge(interval=0.01)
    g.start()
    try:
        start = time.perf_counter()
        elapsed, _, problem = client.run_op(cli, SAMPLE[5], g)
        wall = time.perf_counter() - start
    finally:
        g.stop()
    assert problem is None and g.samples and g.spent > 0
    assert elapsed == pytest.approx(wall - g.spent, abs=1e-3)


def test_tail_is_per_pass_when_a_pass_has_more_than_ten_operations():
    slow_pass = [1.0] * 20 + [50.0]  # one stall in one pass
    passes = [[1.0] * 21, slow_pass, [1.0] * 21]
    assert run.run_tail(passes)[0] == 1.0 and run.run_tail(passes)[2] == "pass"
    short = [[float(i) for i in range(10)]] * 3
    latency, percentile, over = run.run_tail(short)
    assert over == "run" and latency == 6.0 and percentile == pytest.approx(100 * 20 / 30)
