"""Count the code lines of Python modules, per module and in total.

A code line is a physical line that holds at least one token other than a
comment, so blank lines and comment-only lines do not count.  Docstrings (the
leading string statement of a module, class or function) do not count either.
A statement split over several lines counts each of its lines.

Usage: python tools/loc.py FILE_OR_DIR [...]

A directory stands for every ``*.py`` file below it.  Modules are printed
largest first, then the total.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module and its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Physical lines of ``source`` that carry code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(args: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in args:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/loc.py FILE_OR_DIR [...]", file=sys.stderr)
        return 2
    counts = {str(f): code_lines(f.read_text(encoding="utf-8")) for f in python_files(argv)}
    width = max(map(len, counts), default=5)
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
