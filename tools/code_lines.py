"""Count the code lines of pcekit's modules: lines that hold a token of
code, so blank lines, comments and docstrings do not count. Each module's
physical line count, the figure ``wc -l`` gives, is printed beside it.

A docstring is a string that makes up a whole statement, as the first
statement of a module, class or function does. Run from anywhere:

    python3 tools/code_lines.py [REV]

With a git revision, each module's counts at REV are printed beside the
working tree's, with the change; the revision's files are read with
``git show REV:path`` and nothing is written.
"""

from __future__ import annotations

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
    return len(lines)


def physical_lines(source: str) -> int:
    """The number of newlines in source, as ``wc -l`` counts them."""
    return source.count("\n")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def counts_at(rev: str | None) -> dict[str, tuple[int, int]]:
    """Each module's (code lines, physical lines) by file name, in the
    working tree or at a git revision."""
    if rev is None:
        texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    else:
        src = SRC.relative_to(ROOT).as_posix()
        paths = _git("ls-tree", "--name-only", f"{rev}:{src}").split()
        texts = {name: _git("show", f"{rev}:{src}/{name}")
                 for name in paths if name.endswith(".py")}
    return {name: (code_lines(text), physical_lines(text)) for name, text in texts.items()}


def _cells(old: tuple[int, int] | None, new: tuple[int, int]) -> str:
    """Code then physical lines in the tree, each after its count at the
    revision and before the change if there is one."""
    if old is None:
        return "  ".join(f"{n:6d}" for n in new)
    return "  ".join(f"{o:8d}  {n:6d}  {n - o:+6d}" for o, n in zip(old, new))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else None
    try:
        before = None if rev is None else counts_at(rev)
        tree = counts_at(None)
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    if rev is not None:
        print(f"{'code lines':<24}  physical lines")
        print("  ".join([f"{rev[:8]:>8}  {'tree':>6}  {'change':>6}"] * 2))
    else:
        print(f"{'code':>6}  {'lines':>6}")

    def total(table: dict[str, tuple[int, int]]) -> tuple[int, int]:
        return tuple(map(sum, zip(*table.values()))) if table else (0, 0)

    for name in sorted({*tree, *(before or ())}):
        old = None if before is None else before.get(name, (0, 0))
        print(f"{_cells(old, tree.get(name, (0, 0)))}  {name}")
    print(f"{_cells(None if before is None else total(before), total(tree))}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
