import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts

# a comment line does not


def f(a,
      b):
    """A function docstring."""
    "a bare string statement, which reads as a docstring"
    x = (a +
         b)
    y = """a string inside a statement
    counts on each of its lines"""
    return os.path.join(x, y)
'''


def test_code_lines_counts_lines_that_hold_code():
    # import, both lines of the def, both of x, both of y, and the return
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_counts_cover_every_module_of_the_working_tree():
    counts = code_lines.counts_at(None)
    assert set(counts) == {p.name for p in code_lines.SRC.glob("*.py")}
    assert all(n > 0 for n in counts.values())
