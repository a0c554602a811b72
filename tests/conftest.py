"""Collects ACCEPTANCE result lines and prints them after the test run,
builds the environment for tests that run the CLI in a subprocess, and
puts the repository root on sys.path for `perfbench.tracing` and
`perfbench.reference`."""

import os
import sys
from pathlib import Path

# the repository root, so tests count tape nodes with the benchmark's own counter and
# check ROUGE against its reference; perfbench/ too, where perfbench.reference imports `stub`
sys.path.append(str(Path(__file__).resolve().parents[1]))
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def subprocess_env() -> dict[str, str]:
    """Environment for `python -m punchgen.cli` child processes.

    PYTHONPATH starts with the absolute directory that holds the `punchgen`
    package this test process imported, followed by the inherited entries.
    The child thus runs the code under test whatever its working directory,
    and never a different installed copy.
    """
    import punchgen

    package_root = str(Path(punchgen.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
