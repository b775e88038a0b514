#!/usr/bin/env python3
"""Line counts of the bbmlab package, as one JSON object on standard output.

    python3 scripts/linecount.py [--against TREE]

For src/bbmlab/*.py of this checkout, "wc" is the number of lines (as `wc -l` counts them) and
"code" the number of code lines: lines that hold a token other than a comment or a docstring.
Blank lines do not count, and a string spanning several lines counts on each of them.  A
docstring is the string that opens a module, class or function body.

--against TREE also counts TREE/src/bbmlab/*.py and records the change, this tree minus that
one.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(source: str) -> set:
    """(line, column) of each docstring's opening quote."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> dict:
    """{"wc": lines, "code": code lines} of one Python source."""
    docstrings, code = _docstring_starts(source), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"wc": source.count("\n"), "code": len(code)}


def count_tree(root: str) -> dict:
    """The summed counts of root/src/bbmlab/*.py."""
    total = {"wc": 0, "code": 0}
    for path in sorted(glob.glob(os.path.join(root, "src", "bbmlab", "*.py"))):
        with open(path, encoding="utf-8") as f:
            for key, value in count(f.read()).items():
                total[key] += value
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="TREE", help="a checkout to count and compare with")
    args = ap.parse_args(argv)
    record = count_tree(ROOT)
    if args.against:
        other = count_tree(args.against)
        record["against"] = {"tree": os.path.abspath(args.against), **other,
                             "change": {key: record[key] - other[key] for key in other}}
    json.dump(record, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
