import signal
import sys
import threading
from pathlib import Path

import pytest

# test the in-repo sources even when no (or an older) install is present
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture(autouse=True)
def _bounded_run_time():
    """Fail a test that runs for 120 s, some 24 times the slowest test (5 s
    on a 2-vCPU VM), so a hung sweep or elimination is reported by name
    instead of holding the run until CI's job timeout.  Needs SIGALRM and
    the main thread; the previous handler and timer are restored after."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 120 s")

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, 120)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, *timer)
