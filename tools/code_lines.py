"""Count the code lines of Python sources.

A code line is a non-blank line that holds a token other than a comment,
and is not part of a module, class or function docstring.  A token that
spans lines, such as a multi-line string that is not a docstring, counts
on every non-blank line it covers.  Standard library only.

    python tools/code_lines.py src/liarsim

prints the count of each module under the given folders, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    text = source.splitlines()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    lines -= docstring_lines(ast.parse(source))
    return sum(1 for line in lines if text[line - 1].strip())


def main(folders: list[str]) -> int:
    counts = {}
    for folder in map(Path, folders):
        for path in sorted(folder.rglob("*.py")):
            name = str(path.relative_to(folder).with_suffix(""))
            counts[name] = code_lines(path.read_text(encoding="utf-8"))
    width = len(str(sum(counts.values())))
    for name, count in counts.items():
        print(f"{count:>{width}}  {name}")
    print(f"{sum(counts.values()):>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
