"""Code lines per module of torfan's source, and their total.

Usage:

    python3 tools/code_lines.py [TREE]

TREE is a checkout of the repository (by default the one holding this
tool); every ``*.py`` file of ``TREE/src/torfan`` is counted.  A code line
is a line that is not blank, not a ``#`` comment line and not part of the
docstring of a module, class or function, read with ``ast``.  One line per
module, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = _docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    tree = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    counts = {p.name: code_lines(p) for p in sorted((tree / "src" / "torfan").glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5,}")
    print(f"{'total':<{width}} {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
