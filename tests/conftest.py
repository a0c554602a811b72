"""Prints the ACCEPTANCE result lines after the test run, and puts the repository root
on sys.path for `perfbench.tracing` and `perfbench.reference`."""

import sys
from pathlib import Path

# the repository root, so tests count tape nodes with the benchmark's own counter and
# check ROUGE against its reference; perfbench/ too, where perfbench.reference imports `stub`
sys.path.append(str(Path(__file__).resolve().parents[1]))
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))


def pytest_terminal_summary(terminalreporter):
    from suite_support import ACCEPTANCE_LINES

    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
