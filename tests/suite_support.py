"""Helpers the test modules share: the fixture records, the ACCEPTANCE result lines, and
the environment for tests that run the CLI in a subprocess.

The name is unique on sys.path, so `from suite_support import ...` finds this module
whichever test directories are collected.
"""

import os
from pathlib import Path

import punchgen
from punchgen.corpus import JokeRecord, deduplicate, filter_joke, read_raw_jokes, segment_punchline
from punchgen.knowledge import FixtureProvider, annotate_dataset

FIXTURES = Path(__file__).parent / "fixtures"
ACCEPTANCE_LINES: list[str] = []


def fixture_records(limit: int = 32) -> list[JokeRecord]:
    """The first `limit` fixture jokes that pass the filters and de-duplication, annotated."""
    records = []
    for raw in read_raw_jokes(FIXTURES / "raw_jokes.txt"):
        kept = filter_joke(raw)
        if kept is None:
            continue
        setup, punch = segment_punchline(kept)
        records.append(JokeRecord(setup, punch))
    records = deduplicate(records)[:limit]
    provider = FixtureProvider(FIXTURES / "knowledge.json")
    return annotate_dataset(records, provider, provider)


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def subprocess_env() -> dict[str, str]:
    """Environment for `python -m punchgen.cli` child processes.

    PYTHONPATH starts with the absolute directory that holds the `punchgen`
    package this test process imported, followed by the inherited entries.
    The child thus runs the code under test whatever its working directory,
    and never a different installed copy.
    """
    package_root = str(Path(punchgen.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
