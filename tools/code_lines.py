"""Count the lines and the code lines of each module under src/ellipsample.

A code line holds at least one token that is not a comment and lies outside
every module, class and function docstring; blank lines, comment lines and
docstring lines do not count.  Standard library only.

Run from the repository root:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellipsample"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> int:
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
