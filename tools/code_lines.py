#!/usr/bin/env python3
"""Count the code lines of each module of a package and in total.

    python3 tools/code_lines.py [package_dir]    # default: src/thermophase

A code line holds a token of code: a line that is blank, holds only a comment,
or lies within a docstring (the leading string of a module, class or function)
is not one.  A string literal that is not a docstring counts on every line it
spans.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = argv[0] if argv else os.path.join(ROOT, "src", "thermophase")
    counts = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            counts[os.path.splitext(os.path.basename(path))[0]] = code_lines(fh.read())
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:16s} {n:5d}")
    print(f"{'total':16s} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
