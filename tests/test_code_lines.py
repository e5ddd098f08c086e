"""scripts/code_lines.py counts the lines that hold a token outside comments
and docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    def area(self, a,
             b):
        """Function
        docstring."""
        total = (a
                 * b)
        text = """a string
that is not a docstring"""
        return math.fabs(total), text
'''


def test_counts_token_lines_outside_comments_and_docstrings():
    # import; class; def over two lines; the assignment over two; the
    # string over two; return
    assert code_lines.code_lines(SOURCE) == 1 + 1 + 2 + 2 + 2 + 1


def test_main_prints_each_path_and_the_total(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text(SOURCE)
    assert code_lines.main([str(module), str(module)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "9", "18"]
    assert lines[-1].split()[1] == "total"
