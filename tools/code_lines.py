"""Count the code lines of Python files: lines that are not blank, not only
a comment and not part of a docstring.

A line counts when it holds at least one token other than a comment or a
line break and it lies outside every docstring (the string literal that
opens a module, class or function body). Usage:

    python3 tools/code_lines.py src/hyperqkd/*.py           # the total
    python3 tools/code_lines.py --each src/hyperqkd/*.py    # and per file
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files to count")
    parser.add_argument("--each", action="store_true", help="also print each file's count")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        if args.each:
            print(f"{count:6d} {path}")
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
