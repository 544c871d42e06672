"""pcekit's help text and usage errors, pinned byte for byte.

Each case's expected text is a file under tests/data/cli_text/, written by
tests/data/make_golden.py: the help a command prints to stdout with exit
code 0, or the usage error it prints to stderr with exit code 2. The text
is laid out for a fixed terminal width, ``COLUMNS=80``; argparse lays it
out differently in other Python minor versions, so the files pin the
version they were written with.
"""

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from pcekit.cli import main

TEXT_DIR = Path(__file__).resolve().parent / "data" / "cli_text"
TEXT_PYTHON = (3, 11)  # the version the files were written with

# case -> arguments; a case ending in "_help" prints help, any other a usage error
TEXT_CASES = {
    "pcekit_help": ["-h"],
    "simulate_help": ["simulate", "-h"],
    "estimate_help": ["estimate", "-h"],
    "diagnose_help": ["diagnose", "-h"],
    "replicate_help": ["replicate", "-h"],
    "bad_scenario": ["simulate", "--scenario", "nope"],
    "bad_direction": ["diagnose", "--input", "trial.csv", "--direction", "sideways"],
    "bad_method": ["estimate", "--input", "trial.csv", "--method", "nope"],
    "bad_command": ["frobnicate"],
}


def cli_text(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv) at a terminal width of 80,
    for arguments on which the parser exits."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError(f"{argv} did not exit in the parser")
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info[:2] != TEXT_PYTHON,
                    reason="argparse's layout differs between Python minor versions")
@pytest.mark.parametrize("case", TEXT_CASES)
def test_cli_text_is_pinned(case):
    code, out, err = cli_text(TEXT_CASES[case])
    expected = (TEXT_DIR / f"{case}.txt").read_text(encoding="utf-8")
    if case.endswith("_help"):
        assert (code, err) == (0, "")
        assert out == expected
    else:
        assert (code, out) == (2, "")
        assert err == expected
