"""Show how far the frozen outputs under tests/data moved since a git
revision: for each output file (``*.out.*``) that differs from the working
tree, how many numbers changed and the largest relative change. Run from
anywhere:

    python3 tools/golden_drift.py [REV]

REV defaults to HEAD; its files are read with ``git show REV:path`` and
nothing is written. Numbers are compared by value; the text between them
must match. The exit status is 1 if anything but numbers differs: the text
of an output, where it reads ``NA`` or ``null``, its row count, or any
other file under tests/data, including one that is new or gone.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from pathlib import Path, PurePosixPath
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DATA = "tests/data"
# a decimal number that is not part of a word, as S01 or x_base2 are
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


class Drift(NamedTuple):
    """How one output's text moved: the numbers that changed and the largest
    relative change among them, or, in ``text``, where it differs in
    anything but numbers."""

    changed: int = 0
    largest: float = 0.0
    text: str | None = None


def drift(old: str, new: str) -> Drift:
    """Compare two texts of one output number by number."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return Drift(text=f"{len(old_lines)} rows, now {len(new_lines)}")
    for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if _NUMBER.split(a) != _NUMBER.split(b):
            return Drift(text=f"text differs at line {i}")
    changed, largest = 0, 0.0
    for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if a != b:
            x, y = float(a), float(b)
            changed += 1
            largest = max(largest, abs(y - x) / abs(x) if x else math.inf)
    return Drift(changed, largest)


def _git(*args: str) -> str:
    # as bytes, then decoded, so a changed line ending shows as a change
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout.decode("utf-8")


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: golden_drift.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    try:
        then = set(_git("ls-tree", "-r", "--name-only", rev, "--", DATA).split())
        # tracked and untracked files of the tree, less those .gitignore names
        now = {p for p in _git("ls-files", "--cached", "--others", "--exclude-standard",
                               "--", DATA).split() if (ROOT / p).is_file()}
        old = {p: _git("show", f"{rev}:{p}") for p in sorted(then & now)}
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.decode('utf-8', 'replace').strip()}", file=sys.stderr)
        return 1
    status = 0
    numbers, largest = 0, 0.0
    for path in sorted(then | now):
        name = PurePosixPath(path).relative_to(DATA)
        if path not in now or path not in then:
            print(f"{name}: {'gone' if path in then else 'new'}")
            status = 1
            continue
        new = (ROOT / path).read_bytes().decode("utf-8")
        if new == old[path]:
            continue
        if ".out." not in name.name:
            print(f"{name}: changed, and it is not an output")
            status = 1
            continue
        moved = drift(old[path], new)
        if moved.text is not None:
            print(f"{name}: {moved.text}")
            status = 1
            continue
        print(f"{name}: {moved.changed} numbers changed, largest relative change {moved.largest:.1e}")
        numbers += moved.changed
        largest = max(largest, moved.largest)
    print(f"total: {numbers} numbers changed, largest relative change {largest:.1e}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
