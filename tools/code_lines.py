#!/usr/bin/env python3
"""Count the code lines of a Python package: lines that hold a token other
than a comment, and lie outside every module, class and function
docstring. Blank lines and comment-only lines do not count.

Usage, from the root of a source checkout:

    python3 tools/code_lines.py [DIR]     (default: src/splr)

Prints one line per file and the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of the module, its
    classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/splr")
    args = parser.parse_args()
    total = 0
    for path in sorted(Path(args.dir).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
