#!/usr/bin/env python3
"""Code lines of each module of the package and their total, then the
totals of the test and tool layers, ``tests/*.py`` and ``tools/*.py``.

A code line holds at least one token that is not a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings are
left out; a string that spans lines counts every line it covers.

Run from the repository root:  python3 tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "combcurv"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(ROOT)}")
    print(f"{total:6d}  total")
    for layer in ("tests", "tools"):
        n = sum(code_lines(path.read_text()) for path in (ROOT / layer).glob("*.py"))
        print(f"{n:6d}  {layer}/*.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
