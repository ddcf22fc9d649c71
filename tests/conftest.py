import pytest

from ctckit import discontinuity


@pytest.fixture
def empty_probe_table():
    """Empty the process-wide table of generated probe states, so a count that
    includes building them reads the same whatever ran before."""
    discontinuity._generated_paths.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture ends.

    The acceptance tests record one [PASS]/[FAIL] line per criterion; the
    default fd-level capture would otherwise swallow them for passing tests.
    """
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
