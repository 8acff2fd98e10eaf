"""Unit tests for ``tools/loc.py``, the code-line counter."""

from __future__ import annotations

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "loc.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("loc_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_directory_counts_the_sum_of_its_python_files(tmp_path, capsys):
    loc = load_tool()
    (tmp_path / "a.py").write_text('"""Docstring."""\n\nx = 1  # comment\n# only a comment\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('def f():\n    """Doc."""\n    return 2\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    files = [str(tmp_path / "a.py"), str(tmp_path / "sub" / "b.py")]
    assert [loc.code_lines(path) for path in files] == [1, 2]

    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"      3  {tmp_path}\n      3  total\n"
