"""Code lines of Python files: lines that are not blank, not comments
and not docstrings.

Usage:
    python3 tools/code_lines.py PATH...

A PATH that is a directory stands for the ``*.py`` files in it. Prints
one line per file, then the total.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """Lines of ``source`` outside docstrings that hold more than a comment."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docstrings and line.strip() and not line.strip().startswith("#"))


def main(paths):
    if not paths:
        sys.exit(__doc__.split("\n\n")[1])
    files = [f for p in map(Path, paths) for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
