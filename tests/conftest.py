"""Pytest hooks: collect acceptance-criterion outcomes and print a summary.

Property tests run under a fixed profile: derandomized examples, no example
database and no deadline, so a run repeats the previous one's outcome and
writes no `.hypothesis/` directory.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{_ACCEPTANCE[name]}  {name}")
