"""Count code lines: lines that hold a token other than a comment, leaving
out docstrings (module, class and function) and blank lines.

Usage, from the repository root:

    python3 tools/code_lines.py [PATH ...]      # default: src/bubblebem

Prints, per module and in total, the code line count and the number of
public names: top-level functions and classes whose name does not start
with an underscore.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def public_names(tree: ast.Module) -> int:
    """Top-level functions and classes whose name has no leading underscore."""
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
               and not node.name.startswith("_") for node in tree.body)


def code_lines(path: str) -> tuple[int, int]:
    """Code lines and public names of one module."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip), public_names(tree)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["src/bubblebem"]:
        paths += (sorted(glob.glob(os.path.join(arg, "*.py")))
                  if os.path.isdir(arg) else [arg])
    total = total_public = 0
    for path in paths:
        count, public = code_lines(path)
        total += count
        total_public += public
        print(f"{count:6d}  {public:4d}  {path}")
    print(f"{total:6d}  {total_public:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
