"""The line counter on a small module: docstrings and comments are not code."""

from oracles import load_script

loc = load_script("loc")

MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A function docstring."""
    text = """a string in code,
over two lines"""
    return call(
        "a string that continues the arguments"
    )


class C:
    "a docstring" " joined to another"
    "a", "tuple of strings"
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    # import, def, the two lines of text, the three of the call, class, the tuple
    assert loc.code_lines(tmp_path / "mod.py") == 9
    assert loc.counts(tmp_path) == [("mod.py", 19, 9)]
