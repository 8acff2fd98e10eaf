#!/usr/bin/env python3
"""Documentation checker (used by the CI docs job): links and commands.

Scans the repository's markdown files for inline links ``[text](target)``
and verifies that every *relative* target exists on disk, resolved against
the file containing the link.  External links (``http(s)://``, ``mailto:``)
and pure in-page anchors (``#...``) are skipped; a relative target's own
``#anchor`` suffix is stripped before the existence check.

It also feeds every ``repro ...`` / ``armada-repro ...`` / ``python -m
repro ...`` line inside a fenced code block to the CLI's own parser
(continuation lines joined, cut at the first shell operator or comment):
each command rejects the flags it does not read, so a documented
invocation that no longer parses (argparse exit 2) is an error here.

Last, README's per-command flag table (``| command | flags |``) must name
every flag each command's subparser offers, ``sizing`` standing for the
profile flags.  Only that direction is checked: a row may name a flag in
order to say the command lacks it.

Exit status: 0 when every link resolves, every command parses and the
table names every flag, 1 otherwise (the failures are listed on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shlex
import sys
from typing import Dict, Iterator, List, Set, Tuple

#: inline markdown link, non-greedy so adjacent links split correctly
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: a documented CLI invocation (after any ``VAR=value`` prefixes)
_COMMAND = re.compile(r"^(?:\w+=\S+\s+)*(?:repro|armada-repro|python3? -m repro)\s+(.*)$")

#: where the shell, not the CLI, takes over the rest of the line
_SHELL_OPERATOR = re.compile(r"\s(?:[|&;<>#]|\d>)")

#: markdown files checked by default (relative to the repo root)
DEFAULT_FILES = ("README.md", "docs/ARCHITECTURE.md")

#: the header row of README's per-command flag table
_FLAG_TABLE = "| command | flags |"

#: what the flag table's word ``sizing`` stands for
_SIZING = {"--profile", "--peers", "--queries", "--objects", "--seed"}


def iter_links(markdown_path: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, target)`` for every inline link in the file."""
    with open(markdown_path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            for match in _LINK.finditer(line):
                yield line_number, match.group(1)


def check_file(markdown_path: str) -> List[str]:
    """Return a list of error strings for unresolvable relative links."""
    errors: List[str] = []
    base = os.path.dirname(os.path.abspath(markdown_path))
    for line_number, target in iter_links(markdown_path):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            errors.append(f"{markdown_path}:{line_number}: broken link -> {target}")
    return errors


def iter_commands(markdown_path: str) -> Iterator[Tuple[int, List[str]]]:
    """Yield ``(line_number, argv)`` for every CLI line in a fenced block."""
    fenced = False
    pending = ""
    with open(markdown_path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line.startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                continue
            line = pending + line
            if line.endswith("\\"):
                pending = line[:-1]
                continue
            pending = ""
            match = _COMMAND.match(line)
            if match is not None:
                yield line_number, shlex.split(_SHELL_OPERATOR.split(match.group(1))[0])


def check_commands(markdown_path: str, parser) -> List[str]:
    """Return an error string for every documented command argparse rejects."""
    errors: List[str] = []
    for line_number, argv in iter_commands(markdown_path):
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                parser.parse_args(argv)
        except SystemExit as exit_:  # --help exits 0; a rejected flag exits 2
            if exit_.code:
                message = captured.getvalue().strip().splitlines()[-1]
                errors.append(
                    f"{markdown_path}:{line_number}: `repro {' '.join(argv)}` "
                    f"does not parse -> {message}"
                )
    return errors


def flag_table(markdown_path: str) -> Dict[str, Set[str]]:
    """``{command: the flags its row names}`` of the per-command flag table."""
    rows: Dict[str, Set[str]] = {}
    with open(markdown_path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    if _FLAG_TABLE not in lines:
        return rows
    for line in lines[lines.index(_FLAG_TABLE) + 2 :]:
        if not line.startswith("|"):
            break
        commands, flags = line.strip("|").split("|", 1)
        named = set(re.findall(r"--[\w-]+", flags)) | (_SIZING if "sizing" in flags else set())
        for command in re.findall(r"`([\w-]+)`", commands):
            rows[command] = named
    return rows


def check_flag_table(markdown_path: str, parser) -> List[str]:
    """Return an error string for every offered flag the table leaves out."""
    rows = flag_table(markdown_path)
    if not rows:
        return [f"{markdown_path}: no per-command flag table ({_FLAG_TABLE})"]
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    errors: List[str] = []
    for command, sub in commands.choices.items():
        offered = {flag for action in sub._actions for flag in action.option_strings}
        missing = sorted(offered - {"-h", "--help"} - rows.get(command, set()))
        if missing:
            errors.append(f"{markdown_path}: the `{command}` row leaves out {', '.join(missing)}")
    return errors


def main(argv: List[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.cli import build_parser

    parser = build_parser()
    files = argv[1:] if len(argv) > 1 else [os.path.join(root, name) for name in DEFAULT_FILES]
    errors: List[str] = []
    checked = 0
    for markdown_path in files:
        if not os.path.exists(markdown_path):
            errors.append(f"{markdown_path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(markdown_path))
        errors.extend(check_commands(markdown_path, parser))
    errors.extend(check_flag_table(os.path.join(root, "README.md"), parser))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(
        f"checked {checked} file(s): all links resolve, all repro commands parse, "
        "the flag table names every flag"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
