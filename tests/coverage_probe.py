"""Statement coverage of the package by tier-1: which statements never run?

The probe runs tier-1 in this process under a `sys.settrace` (and
`threading.settrace`) line tracer that watches only the files of
`src/hmslines`.  A statement is every `ast.stmt` of those files except
`def`, `class`, imports and docstrings; it runs when the tracer sees
one of its own lines run (a compound statement owns its header, not its
body).  The probe prints, per module, the line numbers of the statements
that tier-1 never runs, then the total.  A statement that no test runs
is either reached by a test that fails without it or deleted.

Run from the repository root, outside tier-1 (pytest does not collect
this file; tracing makes tier-1 several times slower):

    python tests/coverage_probe.py

It uses only the standard library and the interpreter running it, which
must have pytest and hypothesis.  Exit status: 0 when every statement
runs, 1 when one does not, 2 when tier-1 itself fails.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hmslines"
TIER1 = ("-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"))
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source):
    """{first line: the lines the statement owns} for each counted
    statement of a module's source."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED):
            continue
        if id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        owned[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return owned


def missed(owned, ran):
    """First lines of the statements none of whose lines ran."""
    return sorted(first for first, lines in owned.items() if not ran.intersection(lines))


class LineCollector:
    """Records the lines run in the given files while it is entered;
    the trace function in place before it is put back on exit."""

    def __init__(self, filenames):
        self.ran = {str(name): set() for name in filenames}

    def _global(self, frame, event, arg):
        lines = self.ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self.previous = sys.gettrace(), threading.gettrace()
        sys.settrace(self._global)
        threading.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous[0])
        threading.settrace(self.previous[1])


def report(modules, ran):
    """(lines of the report, statements never run)."""
    out, total, never = [], 0, 0
    for path in modules:
        owned = statements(path.read_text())
        lines = missed(owned, ran[str(path)])
        total += len(owned)
        never += len(lines)
        if lines:
            out.append(f"{path.stem:10} {', '.join(map(str, lines))}")
    out.append(f"{never} of {total} statements never run")
    return out, never


def main():
    import pytest

    modules = sorted(PACKAGE.glob("*.py"))
    sys.path.insert(0, str(ROOT / "src"))
    with LineCollector(modules) as collector:
        status = pytest.main(list(TIER1))
    lines, never = report(modules, collector.ran)
    print("\n".join(lines))
    if status != 0:
        print(f"tier-1 failed (pytest exit {status})")
        return 2
    return 1 if never else 0


if __name__ == "__main__":
    sys.exit(main())
