"""A wall-clock budget for every test.

hypothesis checks a `deadline` only after an example returns, so an
example that blows up never fails: it stalls the run.  Here each test runs
under a SIGALRM timer instead.  When the budget runs out, the handler
raises `BudgetExceeded` inside whatever is running, the stuck example
included.  It derives from BaseException, so hypothesis does not catch it
to shrink and replay the stuck example, and pytest reports it as the
test's failure.  The slowest test takes a few seconds.
"""
import signal

import pytest

BUDGET_S = 60


class BudgetExceeded(BaseException):
    """A test ran past its wall-clock budget."""


@pytest.fixture(autouse=True)
def _wall_clock_budget(request):
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return

    def expire(signum, frame):
        raise BudgetExceeded(f"{request.node.nodeid} ran past its {BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
