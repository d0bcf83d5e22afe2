#!/usr/bin/env python3
"""Count the lines of each module of ``src/abasolve`` in a checkout.

    python3 tools/loc.py [ROOT]

ROOT defaults to the checkout holding this file.  For each module, and in
total, it prints two numbers: the module's lines, and its code lines, the
lines that hold a token other than a comment, a docstring or whitespace.
A docstring is a string that is the first statement of a module, class or
function; a string token that spans several lines holds each of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple, tuple]]:
    """The (start, end) source positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT,
                        help="checkout to count (default: this one)")
    args = parser.parse_args(argv)
    modules = sorted((args.root / "src" / "abasolve").glob("*.py"))
    if not modules:
        print(f"no modules under {args.root / 'src' / 'abasolve'}",
              file=sys.stderr)
        return 2
    total_lines = total_code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in modules:
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:>6} {code:>6}  {path.name}")
    print(f"{total_lines:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
