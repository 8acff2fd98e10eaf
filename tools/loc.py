#!/usr/bin/env python3
"""Code lines of ``src/repro``: the one size measure simplicity PRs agree on.

A code line carries at least one token that is not a comment, a blank or
part of a docstring (``wc -l`` counts all three, so a PR that deletes code
while its docstrings grow reads as growth).  Prints one line per top-level
package of ``src/repro`` and the total; with paths as arguments, one line
per given file or directory (the sum over its ``.py`` files) and their
total instead::

    python tools/loc.py src/repro/experiments src/repro/analysis
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Dict, Iterable, Set

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}  # fmt: skip
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    """Lines of ``path`` holding code: not blank, comment or docstring."""
    with open(path, "rb") as handle:
        source = handle.read()
    docstring_lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines: Set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def python_files(root: str) -> Iterable[str]:
    for directory, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def main(argv: list) -> int:
    counts: Dict[str, int] = {}
    if argv:
        for path in argv:
            files = python_files(path) if os.path.isdir(path) else [path]
            counts[path] = sum(code_lines(name) for name in files)
    else:
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "repro")
        for path in python_files(root):
            package = os.path.relpath(path, root).split(os.sep)[0]
            counts[package] = counts.get(package, 0) + code_lines(path)
    for name, count in counts.items():
        print(f"{count:7d}  {name}")
    print(f"{sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
