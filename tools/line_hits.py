"""Print the statements of src/ellipsample that a pytest run never executes.

Runs pytest in this process with the given arguments, as its command line
would, under a line tracer installed with ``sys.settrace`` and
``threading.settrace``, which records the lines run in frames whose code
lies under src/ellipsample.  Then prints each statement in a function body
that never ran, as ``module:line: text`` (the text is the statement's first
line), and a total, for example:

    cli.py:199: raise OSError("standard output is closed")
    ...
    total 4 of 802 statements never ran

Docstrings and statements that compile to nothing (``global``, a bare
string) are not counted.  A compound statement ran if its header or its
first statement did, so a ``try`` counts once its body starts.

Only this process and the threads it starts are traced: subprocess
children, such as the ``python -m ellipsample`` runs some tests start, are
not, so code that only they reach is listed as never run.  ``cli._emit``'s
raise for a standard output that was closed at start-up, and its handling
of a reader that closed early, are two such places.

Standard library and pytest only (``coverage`` is not needed).  Run from the
repository root, with pytest's own arguments:

    python3 tools/line_hits.py tests/test_api.py -q
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "ellipsample"


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code for ``args`` and the lines run in each package module, by resolved path."""
    hits: dict[Path, set[int]] = {}
    # Each code object's file, resolved once: the local tracer that records
    # into the module's line set, or None outside the package.  A call only
    # looks its tracer up, and allocates nothing that a test measuring its own
    # allocations (with tracemalloc, say) could count.
    tracer_of: dict[str, object] = {}

    def local_tracer(found: set[int]):
        def local(frame, event, arg):
            if event == "line":
                found.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracer_of:
            path = Path(filename).resolve()
            inside = path.parent == PACKAGE
            tracer_of[filename] = local_tracer(hits.setdefault(path, set())) if inside else None
        return tracer_of[filename]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _header(stmt: ast.stmt) -> range:
    """The lines of a simple statement, or of a compound statement's header, decorators included."""
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _ran(stmt: ast.stmt, hit: set[int]) -> bool:
    """Whether a line of ``stmt``'s header ran or, for a block that is not a definition, its first statement."""
    if not hit.isdisjoint(_header(stmt)):
        return True
    return bool(getattr(stmt, "body", None)) and not isinstance(stmt, _SCOPES) and _ran(stmt.body[0], hit)


def _statements(body: list[ast.stmt]):
    """Every statement of a function body that compiles to code, nested blocks included.

    The bodies of nested functions and classes are left to their own walk.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        yield stmt
        if isinstance(stmt, _SCOPES):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, block, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def never_run(path: Path, hit: set[int]) -> tuple[list[tuple[int, str]], int]:
    """The statements in ``path``'s function bodies whose lines are not in ``hit``, and the count of all.

    Each is given as its line and that line's text.
    """
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    statements = [
        stmt
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in _statements(node.body)
    ]
    missed = [(stmt.lineno, text[stmt.lineno - 1].strip()) for stmt in statements if not _ran(stmt, hit)]
    return sorted(missed), len(statements)


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    code, hits = run_traced(args)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, count = never_run(path, hits.get(path.resolve(), set()))
        for line, text in lines:
            print(f"{path.name}:{line}: {text}")
        missed += len(lines)
        total += count
    print(f"total {missed} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
