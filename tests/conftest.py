import pytest


@pytest.fixture(scope="session")
def battery_result():
    """Run each `evolute.selftest` check at most once per test session.

    An acceptance criterion and the unit test of the same grid or curve assert
    on one shared result, so the plane cubic of `check_oracle` (the slowest
    elimination in the suite) is eliminated once per run.
    """
    results = {}

    def run(check):
        if check not in results:
            results[check] = check()
        return results[check]

    return run
