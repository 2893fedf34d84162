import pytest

# the shared property suites check with assert statements: pytest rewrites
# them into explicit raises, which python -O keeps
pytest.register_assert_rewrite("property_suites")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
