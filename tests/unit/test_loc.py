"""Unit tests for ``tools/loc.py``, the code-line counter."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

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


def test_an_argument_that_is_not_a_path_prints_the_usage(tmp_path, capsys):
    loc = load_tool()
    for argv in ([str(tmp_path / "nonexistent")], ["--help"], [str(tmp_path), "-h"]):
        assert loc.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == loc.USAGE + "\n"


def test_the_script_exits_2_with_the_usage_and_no_traceback(tmp_path):
    finished = subprocess.run(
        [sys.executable, TOOL, str(tmp_path / "nonexistent")],
        capture_output=True, text=True, check=False,
    )
    assert finished.returncode == 2
    assert finished.stdout == ""
    assert finished.stderr == load_tool().USAGE + "\n"


def test_per_package_sums_each_top_level_package(tmp_path):
    loc = load_tool()
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "a.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("w = 4\n")
    assert loc.per_package(str(tmp_path)) == {"mod.py": 1, "pkg": 3}


def test_no_argument_counts_src_repro_per_package(capsys):
    loc = load_tool()
    assert loc.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for count, name in rows}
    assert {"cli.py", "core", "kautz", "storage"} <= set(counts)
    assert counts.pop("total") == sum(counts.values())
