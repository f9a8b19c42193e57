"""Line counts of the package source, total and code only.

    python3 tools/srcloc.py [DIR]                    default: src

Prints, for every ``*.py`` file under DIR, its total lines and its code
lines, then the totals over all files. A code line is a line that holds
part of a statement: blank lines, comment-only lines and the lines of a
docstring (the leading string of a module, class or function, found with
``ast``) do not count. Which lines hold a token is found with
``tokenize``, so a line inside a multi-line expression counts, and so
does every line of a multi-line string that is not a docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT / "src"
    counts = {path: count_lines(path.read_text())
              for path in sorted(root.rglob("*.py"))}
    for path, (total, code) in counts.items():
        print(f"{total:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{sum(t for t, _ in counts.values()):6d} "
          f"{sum(c for _, c in counts.values()):6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
