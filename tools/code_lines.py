"""Count the code lines of Python modules: lines that hold a token of code,
leaving out docstrings, comments and blank lines.

    python3 tools/code_lines.py src/lamconn

prints one "count path" line per module, sorted by path, and then the total
for the directory.  A docstring is the string statement that opens a
module, class or function body, as ``ast.get_docstring`` finds it
(``docstrings``, which ``traffic_lines`` reads too); each line it spans is
left out.  Every other line counts when a token that is not a comment, a
line break or an indentation change starts on it, or a string token runs
across it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree: ast.AST) -> list[ast.stmt]:
    """The docstring statements of tree: each string statement that opens a
    module, class or function body."""
    return [
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstring_lines = {n for doc in docstrings(ast.parse(source)) for n in range(doc.lineno, doc.end_lineno + 1)}
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 1
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
