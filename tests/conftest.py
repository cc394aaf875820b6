import threading

import pytest

from digit_forensics import ReferenceStore, TestOutcome

# Library class that happens to match pytest's Test* collection pattern.
TestOutcome.__test__ = False


@pytest.fixture(scope="session")
def small_store():
    """Shared low-draw store; big enough for stable pmfs, fast to build."""
    return ReferenceStore(seed=2024, mc_draws=20_000, calibration_samples=300)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail any test that leaves a thread running behind it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads running: {left}")
