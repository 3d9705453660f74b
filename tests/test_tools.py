"""tools/code_lines.py counts the code lines that aim 2 is measured in."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# each counted line is marked; every other line must not count
FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # counted: code with a trailing comment

# a comment-only line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +  # counted
             1)  # counted: a continued statement
        z = 1 + \\
            2  # counted: a backslash continuation
        "a bare string after the first statement"
        return y + z


async def g():
    \'\'\'One-line docstring.\'\'\'
    s = """not a docstring:
    a string in a statement"""
    return s
'''
COUNTED = 13


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == COUNTED


def test_docstring_lines_are_the_scopes_first_strings():
    tree = ast.parse(FIXTURE)
    lines = FIXTURE.splitlines()
    docs = sorted(code_lines.docstring_lines(tree))
    assert [lines[i - 1].strip() for i in docs] == [
        '"""Module docstring,', 'over two lines."""',
        '"""Class docstring."""', '"""Function', 'docstring."""',
        "'''One-line docstring.'''"]


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", str(COUNTED)], ["b.py", "1"],
                    ["total", str(COUNTED + 1)]]
