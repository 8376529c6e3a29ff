import pytest

from evolute import oracle
from evolute.oracle import oracle_check


@pytest.fixture(scope="session")
def shared_oracle_check():
    """`oracle_check` that eliminates each curve at most once per test session.

    The generic plane cubic, the slowest elimination in the suite, is both a
    golden CLI case and part of `selftest.check_oracle`; both read this one
    result.  Results are frozen, so sharing them changes no assertion.
    """
    results = {}

    def check(curve):
        if curve not in results:
            results[curve] = oracle_check(curve)
        return results[curve]

    return check


@pytest.fixture(scope="session")
def battery_result(shared_oracle_check):
    """Run each `evolute.selftest` check at most once per test session.

    An acceptance criterion and the unit test of the same grid or curve assert
    on one shared result; the oracle check eliminates through
    `shared_oracle_check`.
    """
    results = {}

    def run(check):
        if check not in results:
            with pytest.MonkeyPatch.context() as patch:
                # `selftest.check_oracle` imports `oracle_check` when it runs
                patch.setattr(oracle, "oracle_check", shared_oracle_check)
                results[check] = check()
        return results[check]

    return run
