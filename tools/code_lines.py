"""Count the code lines of pcekit's modules: lines that hold a token of
code, so blank lines, comments and docstrings do not count.

A docstring is a string that makes up a whole statement, as the first
statement of a module, class or function does. Run from anywhere:

    python3 tools/code_lines.py [REV]

With a git revision, each module's count at REV is printed beside the
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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def counts_at(rev: str | None) -> dict[str, int]:
    """Code lines of each module, by file name, in the working tree or at a git revision."""
    if rev is None:
        return {p.name: code_lines(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    src = SRC.relative_to(ROOT).as_posix()
    paths = _git("ls-tree", "--name-only", f"{rev}:{src}").split()
    return {name: code_lines(_git("show", f"{rev}:{src}/{name}"))
            for name in paths if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [REV]", file=sys.stderr)
        return 2
    tree = counts_at(None)
    if not argv:
        for name in sorted(tree):
            print(f"{tree[name]:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    try:
        before = counts_at(argv[0])
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    print(f"{argv[0][:8]:>8}  {'tree':>6}  {'change':>6}")
    for name in sorted(before.keys() | tree.keys()):
        old, new = before.get(name, 0), tree.get(name, 0)
        print(f"{old:8d}  {new:6d}  {new - old:+6d}  {name}")
    old, new = sum(before.values()), sum(tree.values())
    print(f"{old:8d}  {new:6d}  {new - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
