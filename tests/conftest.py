"""Shared fixtures and the end-of-run acceptance summary section."""

import pathlib

import pytest

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "acceptance_report.txt"


@pytest.fixture(scope="session")
def warm_backend():
    """Run the kernels once so timed sections start warm."""
    from abrikosov import backend

    backend.warmup()
    return backend.BACKEND


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if REPORT_PATH.exists():
        terminalreporter.section("acceptance criteria")
        for line in REPORT_PATH.read_text().splitlines():
            terminalreporter.write_line(line)
