"""Every statement of src/hermwalk runs under the tier-1 tests.

    python tools/reach.py

Puts src/ first on sys.path, installs a line tracer that follows only code
under src/hermwalk, and runs the tier-1 suite (`pytest tests`) in this
process, so module-level statements are traced as they are imported.  It
then lists every statement of src/hermwalk whose first line made no line
event.  Docstrings, def, class, import and global/nonlocal statements are
left out.  Line granularity: a statement that shares its first line with
another counts as run when that line runs.  There is no allowlist: a
statement no test runs gets a test or is deleted.  The exit status is 1
when pytest fails, a statement is listed, or hermwalk was not imported
from src/, and 0 otherwise.  Needs nothing outside the repository but
numpy, scipy, mpmath and pytest.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "hermwalk"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def statement_lines(path: Path) -> list[int]:
    """First lines of the statements in path that the check expects to run."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        lines.add(node.lineno)
    return sorted(lines)


def traced_pytest() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for the tier-1 suite and the (file, line) events
    it made in code under src/hermwalk."""
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    code, hits = traced_pytest()
    hermwalk = sys.modules.get("hermwalk")
    origin = Path(hermwalk.__file__).resolve() if hermwalk is not None else None
    if origin is None or origin.parent != PACKAGE:
        print(f"FAIL: hermwalk was imported from {origin}, not from {PACKAGE}")
        return 1
    if code != 0:
        print(f"FAIL: pytest exit code {code}")
        return 1
    missed, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = statement_lines(path)
        total += len(lines)
        missed += [(path, n, source[n - 1].strip()) for n in lines if (str(path), n) not in hits]
    for path, n, text in missed:
        print(f"{path.relative_to(REPO)}:{n}: {text}")
    print(f"{total - len(missed)} of {total} statements of src/hermwalk ran under the tier-1 tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
