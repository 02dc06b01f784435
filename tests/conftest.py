"""Shared pytest wiring for the suite.

Collects the one-line verdicts emitted by the acceptance tests and
prints them after the run, outside capture, so a plain ``pytest -v``
log always carries the conformance report.

Registers the hypothesis profile "ci" (``--hypothesis-profile=ci``): a
property test that sets no example count of its own draws about 2,000
examples, with no deadline.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
