"""Count the code lines of pcekit's modules: lines that hold a token of
code, so blank lines, comments and docstrings do not count. Each module's
physical line count, the figure ``wc -l`` gives, is printed beside it.

A docstring is a string that makes up a whole statement, as the first
statement of a module, class or function does. Run from anywhere:

    python3 tools/code_lines.py [REV]

With a git revision, each module's counts at REV are printed beside the
working tree's, with the change; the revision's files are read with
``git show REV:path`` and nothing is written.

    python3 tools/code_lines.py [REV] --functions MODULE

prints the code lines of each top-level function of one module (``glm``
or ``glm.py``), nested functions counted in the one that holds them, and
with REV each function's count at REV beside the tree's.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcekit"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines in source that hold code."""
    return len(_code_line_numbers(source))


def _code_line_numbers(source: str) -> set[int]:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE and statement:
            if [t.type for t in statement] != [tokenize.STRING]:  # not a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


def function_code_lines(source: str) -> dict[str, int]:
    """The code lines of each top-level function in source, by name, from
    its first decorator to its last line."""
    lines = _code_line_numbers(source)
    counts = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            counts[node.name] = sum(first <= i <= node.end_lineno for i in lines)
    return counts


def physical_lines(source: str) -> int:
    """The number of newlines in source, as ``wc -l`` counts them."""
    return source.count("\n")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def module_at(rev: str | None, name: str) -> str:
    """The source of one module, in the working tree or at a git revision."""
    if rev is None:
        return (SRC / name).read_text(encoding="utf-8")
    return _git("show", f"{rev}:{SRC.relative_to(ROOT).as_posix()}/{name}")


def counts_at(rev: str | None) -> dict[str, tuple[int, int]]:
    """Each module's (code lines, physical lines) by file name, in the
    working tree or at a git revision."""
    if rev is None:
        names = [p.name for p in SRC.glob("*.py")]
    else:
        listing = _git("ls-tree", "--name-only", f"{rev}:{SRC.relative_to(ROOT).as_posix()}")
        names = [name for name in listing.split() if name.endswith(".py")]
    texts = {name: module_at(rev, name) for name in names}
    return {name: (code_lines(text), physical_lines(text)) for name, text in texts.items()}


def function_counts_at(rev: str | None, module: str) -> dict[str, tuple[int]]:
    """Each top-level function's (code lines,) in one module, by name."""
    return {name: (n,) for name, n in function_code_lines(module_at(rev, module)).items()}


def _cells(old: tuple[int, ...] | None, new: tuple[int, ...]) -> str:
    """Each count in the tree, after its count at the revision and before
    the change if there is one."""
    if old is None:
        return "  ".join(f"{n:6d}" for n in new)
    return "  ".join(f"{o:8d}  {n:6d}  {n - o:+6d}" for o, n in zip(old, new))


def _total(table: dict[str, tuple[int, ...]], width: int) -> tuple[int, ...]:
    return tuple(map(sum, zip(*table.values()))) if table else (0,) * width


def _print_table(before: dict | None, tree: dict, width: int) -> None:
    for name in sorted({*tree, *(before or ())}):
        old = None if before is None else before.get(name, (0,) * width)
        print(f"{_cells(old, tree.get(name, (0,) * width))}  {name}")
    print(f"{_cells(None if before is None else _total(before, width), _total(tree, width))}"
          "  total")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py", description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision to compare the tree with")
    parser.add_argument("--functions", metavar="MODULE",
                        help="count each top-level function of one module instead")
    args = parser.parse_args(argv)
    rev = args.rev
    if args.functions is None:
        table_at, width = counts_at, 2
        header = f"{'code lines':<24}  physical lines"
    else:
        module = args.functions.removesuffix(".py") + ".py"
        table_at, width = (lambda at: function_counts_at(at, module)), 1
        header = f"code lines of {module}"
    try:
        before = None if rev is None else table_at(rev)
        tree = table_at(None)
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"no module {exc.filename}", file=sys.stderr)
        return 1
    if rev is not None:
        print(header)
        print("  ".join([f"{rev[:8]:>8}  {'tree':>6}  {'change':>6}"] * width))
    else:
        print("  ".join([f"{'code':>6}", f"{'lines':>6}"][:width]))
    _print_table(before, tree, width)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
