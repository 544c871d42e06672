"""No command loads scipy, and the everyday commands load no OpenSSL or thread pool.

pcekit needs numpy only: importing scipy.special would take longer than
most commands and add about 20 MB of resident memory. ``hashlib`` (which
loads OpenSSL) and ``concurrent.futures`` (which brings logging, queue and
traceback) are imported only by the commands that use them. Each case runs
in a fresh interpreter and reports the exit code and the watched modules
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

# with no arguments: import the CLI, then every other pcekit module too
SCRIPT = """
import importlib, json, pkgutil, sys
import pcekit, pcekit.cli
if len(sys.argv) > 1:
    code = pcekit.cli.main(sys.argv[1:])
else:
    code = 0
    for module in pkgutil.iter_modules(pcekit.__path__):
        importlib.import_module("pcekit." + module.name)
watched = ("scipy", "hashlib", "concurrent")
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules
                                                 if m.split(".")[0] in watched)}))
"""


def loaded_modules(argv, package):
    """The modules of ``package`` that running ``argv`` left loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return [m for m in report["loaded"] if m == package or m.startswith(package + ".")]


def loaded_scipy(argv):
    return loaded_modules(argv, "scipy")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["estimate", "--input", DATA / "crossover_missing.csv", "--method", "both",
         "--bootstrap", "20", "--out", "{tmp}/estimate.md"],
        ["simulate", "--scenario", "paper_like", "--out", "{tmp}/trial.csv",
         "--truth-out", "{tmp}/truth.json"],
        ["replicate", "--scenario", "paper_like", "--n", "60", "--replicates", "2",
         "--out", "{tmp}/replicate.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv",
         "--checks", "monotonicity,independence", "--bootstrap", "20",
         "--out", "{tmp}/diagnose.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "all",
         "--bootstrap", "20", "--out", "{tmp}/diagnose.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "ignorability",
         "--out", "{tmp}/diagnose.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "effects",
         "--out", "{tmp}/diagnose.md"],
    ],
    ids=["import", "estimate", "simulate", "replicate", "diagnose-no-t-tests",
         "diagnose-all", "diagnose-ignorability", "diagnose-effects"],
)
def test_command_runs_without_loading_scipy(argv, tmp_path):
    assert loaded_scipy([str(a).format(tmp=tmp_path) for a in argv]) == []


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["estimate", "--input", DATA / "crossover_missing.csv", "--method", "both",
         "--bootstrap", "20", "--out", "{tmp}/estimate.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "all",
         "--bootstrap", "20", "--out", "{tmp}/diagnose.md"],
    ],
    ids=["import", "estimate", "diagnose-all"],
)
@pytest.mark.parametrize("package", ["hashlib", "concurrent"])
def test_everyday_commands_load_no_openssl_or_thread_pool(argv, package, tmp_path):
    assert loaded_modules([str(a).format(tmp=tmp_path) for a in argv], package) == []
