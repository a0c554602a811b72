"""Every function, class and method in the package has a caller.

A name defined in `src/punchgen/*.py` must appear in the package or in the
benchmark (`perfbench/*.py`) somewhere besides its own definitions; tests do
not count as callers. Matching is by whole word over the source text, so a
name that is only mentioned in a comment, or that shares its word with
another name (`ag.exp` behind `np.exp`), still passes: this is a floor
against dead code, not a proof that everything is called.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "punchgen").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def defined_names() -> dict[str, int]:
    """Name -> number of def/class statements that define it, dunders aside."""
    counts: dict[str, int] = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    counts[node.name] = counts.get(node.name, 0) + 1
    return counts


def test_every_defined_name_is_used():
    assert PACKAGE
    text = "\n".join(p.read_text(encoding="utf-8") for p in CALLERS)
    unused = sorted(name for name, n_defs in defined_names().items()
                    if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= n_defs)
    assert unused == []
