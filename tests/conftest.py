"""Shared fixtures and the end-of-run acceptance summary section."""

import pathlib

import pytest

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "acceptance_report.txt"
# this session's verdicts with their run times, which the report leaves out
RUN_LINES = []


@pytest.fixture(scope="session")
def warm_backend():
    """Run the kernels once so timed sections start warm."""
    from abrikosov import backend

    backend.warmup()
    return backend.BACKEND


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = RUN_LINES
    if not lines and REPORT_PATH.exists():
        lines = REPORT_PATH.read_text().splitlines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
