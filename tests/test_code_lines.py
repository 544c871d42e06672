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
    assert all(0 < code <= lines for code, lines in counts.values())


def test_physical_lines_count_newlines_as_wc_does():
    assert code_lines.physical_lines(SOURCE) == 17
    assert code_lines.physical_lines("") == 0
    assert code_lines.physical_lines("no newline at the end") == 0


def test_main_prints_code_and_physical_lines_with_and_without_a_revision(monkeypatch, capsys):
    tree = {p.name: p.read_text(encoding="utf-8") for p in code_lines.SRC.glob("*.py")}

    calls = []

    def git_serving_the_tree(*args):  # the revision's files are the tree's
        calls.append(args)
        if args[0] == "ls-tree":
            return "\n".join(sorted(tree)) + "\n"
        return tree[args[1].rsplit("/", 1)[1]]

    monkeypatch.setattr(code_lines, "_git", git_serving_the_tree)
    code = str(sum(map(code_lines.code_lines, tree.values())))
    lines = str(sum(text.count("\n") for text in tree.values()))
    assert code_lines.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [code, lines, "total"] and len(out) == 1 + len(tree) + 1
    assert code_lines.main(["REV"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [code, code, "+0", lines, lines, "+0", "total"]
    assert out[1].split() == ["REV", "tree", "change"] * 2 and len(out) == 2 + len(tree) + 1
    assert len(calls) == 1 + len(tree)  # one listing, then each module read once


def test_function_code_lines_count_each_top_level_function():
    source = SOURCE + '''

@staticmethod
def g():
    def inner():  # a nested function counts in g
        return 1
    return inner
'''
    # f: both lines of the def, both of x, both of y, and the return
    assert code_lines.function_code_lines(SOURCE) == {"f": 7}
    assert code_lines.function_code_lines(source) == {"f": 7, "g": 5}
    assert code_lines.function_code_lines('"""Only a docstring."""\n') == {}


def test_main_prints_each_function_of_a_module_beside_the_revision(monkeypatch, capsys):
    text = (code_lines.SRC / "glm.py").read_text(encoding="utf-8")
    before = text.replace("def predict_probs(", "def predicted_probs(")

    def git_serving_a_renamed_function(*args):
        assert args == ("show", "REV:src/pcekit/glm.py")
        return before

    monkeypatch.setattr(code_lines, "_git", git_serving_a_renamed_function)
    counts = code_lines.function_code_lines(text)
    assert code_lines.main(["--functions", "glm"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [str(sum(counts.values())), "total"]
    assert len(out) == 1 + len(counts) + 1
    assert code_lines.main(["REV", "--functions", "glm.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "code lines of glm.py"
    assert out[1].split() == ["REV", "tree", "change"]
    rows = {line.split()[-1]: line.split()[:-1] for line in out[2:]}
    n = str(counts["predict_probs"])
    assert rows["predict_probs"] == ["0", n, f"+{n}"]
    assert rows["predicted_probs"] == [n, "0", f"-{n}"]
    assert rows["fit_ols"] == [str(counts["fit_ols"])] * 2 + ["+0"]
    total = str(sum(counts.values()))
    assert rows["total"] == [total, total, "+0"]
