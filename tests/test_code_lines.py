"""``tools/code_lines.py`` counts the lines that are code: not blank, not
only a comment and not inside a module, class or function docstring."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

#: a documentation comment


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines."""
        # a comment line
        "a string expression that is not a docstring"
        return math.fsum(
            [1.0, 2.0],
        )
'''
# code lines: import, class, def, the string expression, and the three of
# the call
SOURCE_CODE_LINES = 7


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == SOURCE_CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Docstring."""\n\nx = 1\ny = (\n    2\n)\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["4", "a.py"], ["7", "b.py"], ["11", "total"]]
