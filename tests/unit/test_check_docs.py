"""Unit tests for ``tools/check_docs.py``'s per-command flag table check."""

from __future__ import annotations

import importlib.util
import os

from repro.cli import build_parser

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def load_tool():
    path = os.path.join(ROOT, "tools", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_table_names_every_flag():
    tool = load_tool()
    assert tool.check_flag_table(os.path.join(ROOT, "README.md"), build_parser()) == []


def test_a_row_that_leaves_out_a_flag_is_an_error(tmp_path):
    tool = load_tool()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    row = "| `replay` | `DUMP...` (one or more flight dumps), `--timeline` |"
    assert row in readme
    markdown = tmp_path / "README.md"
    markdown.write_text(readme.replace(row, "| `replay` | `DUMP...` |"))
    errors = tool.check_flag_table(str(markdown), build_parser())
    assert errors == [f"{markdown}: the `replay` row leaves out --timeline"]


def test_sizing_stands_for_the_profile_flags(tmp_path):
    tool = load_tool()
    markdown = tmp_path / "README.md"
    markdown.write_text("| command | flags |\n|---|---|\n| `table1`, `mira` | sizing |\n")
    assert tool.flag_table(str(markdown)) == {"table1": tool._SIZING, "mira": tool._SIZING}


def test_a_missing_table_is_an_error(tmp_path):
    tool = load_tool()
    markdown = tmp_path / "README.md"
    markdown.write_text("# no table\n")
    assert tool.check_flag_table(str(markdown), build_parser()) == [
        f"{markdown}: no per-command flag table (| command | flags |)"
    ]
