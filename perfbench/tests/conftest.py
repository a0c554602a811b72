"""Puts the benchmark's own modules on sys.path for its reference tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
