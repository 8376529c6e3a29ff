"""Acceptance suite: one test per selftest check, plus the twisted-cubic time budget.

The checks and their grids live in `evolute.selftest.BATTERY`.  Each test
prints a single PASS line on success (visible with `pytest -s`); a failing
check reports its detail.
"""

import time

from evolute import selftest
from evolute.pipelines import curve_report
from evolute.varieties import CurveInvariants


def _criterion(check):
    def test(battery_result):
        name, ok, detail = battery_result(check)
        assert ok, f"{name}: {detail}"
        print(f"ACCEPTANCE: PASS - {name}: {detail}")

    test.check = check
    return test


test_criterion_1_twisted_cubic = _criterion(selftest.check_twisted_cubic)
test_criterion_2_quadric_surface = _criterion(selftest.check_quadric_surface)
test_criterion_3_surface_grid = _criterion(selftest.check_surface_grid)
test_criterion_4_hypersurface_grid = _criterion(selftest.check_hypersurface_grid)
test_criterion_5_curve_grid = _criterion(selftest.check_curve_grid)
test_criterion_6_salmon_consistency = _criterion(selftest.check_salmon_grid)
test_criterion_7_osculating_suite = _criterion(selftest.check_osculating)
test_criterion_8_class_form_regressions = _criterion(selftest.check_class_form_regressions)
test_criterion_9_algebra_properties = _criterion(selftest.check_algebra_properties)
test_criterion_10_elimination_oracle = _criterion(selftest.check_oracle)
test_criterion_11_salmon_reference = _criterion(selftest.check_salmon_reference)


def test_every_check_has_one_criterion():
    checks = [v.check for k, v in globals().items() if k.startswith("test_criterion_")]
    assert len(checks) == len(selftest.BATTERY) and set(checks) == set(selftest.BATTERY)


def test_twisted_cubic_budget():
    start = time.perf_counter()
    curve_report(CurveInvariants(3, 3, 0))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s, budget 0.1s"
    print(f"ACCEPTANCE: PASS - twisted cubic report in {elapsed * 1000:.1f} ms (budget 100 ms)")
