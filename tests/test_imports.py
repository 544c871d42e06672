"""No command loads scipy; the everyday commands load no OpenSSL, thread
pool, JSON codec or signal module; and each command loads only the pcekit
modules it runs.

pcekit needs numpy only: importing scipy.special would take longer than
most commands and add about 20 MB of resident memory. ``hashlib`` (which
loads OpenSSL), ``concurrent.futures`` (which brings logging, queue and
traceback), ``json`` and ``signal`` are imported only by the commands that
use them: every CLI process pays for what ``import pcekit.cli`` loads, and
compiles every pcekit module it imports. Each case runs in a fresh
interpreter and reports the exit code and the watched modules loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

# the arguments are a pcekit command to run, or one mode: "package" imports
# pcekit alone, "cli" pcekit.cli, and "all" pcekit.cli and every other module;
# json is watched, so the script imports it for its report only after the snapshot
SCRIPT = """
import importlib, pkgutil, sys
import pcekit
code = 0
if sys.argv[1:] != ["package"]:
    import pcekit.cli
if sys.argv[1:] == ["all"]:
    for module in pkgutil.iter_modules(pcekit.__path__):
        importlib.import_module("pcekit." + module.name)
elif sys.argv[1] not in ("package", "cli"):
    code = pcekit.cli.main(sys.argv[1:])
watched = ("scipy", "hashlib", "concurrent", "json", "signal", "pcekit")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in watched)
import json
print(json.dumps({"code": code, "loaded": loaded}))
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
        ["all"],
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
        ["all"],
        ["estimate", "--input", DATA / "crossover_missing.csv", "--method", "both",
         "--bootstrap", "20", "--out", "{tmp}/estimate.md"],
        ["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "all",
         "--bootstrap", "20", "--out", "{tmp}/diagnose.md"],
    ],
    ids=["import", "estimate", "diagnose-all"],
)
@pytest.mark.parametrize("package", ["hashlib", "concurrent", "json", "signal"])
def test_everyday_commands_load_no_openssl_or_thread_pool(argv, package, tmp_path):
    assert loaded_modules([str(a).format(tmp=tmp_path) for a in argv], package) == []


@pytest.mark.parametrize(
    ("argv", "writes_json"),
    [
        (["estimate", "--input", DATA / "crossover_missing.csv", "--format", "csv",
          "--out", "{tmp}/estimate.csv"], False),
        (["replicate", "--scenario", "paper_like", "--n", "60", "--replicates", "2",
          "--out", "{tmp}/replicate.md"], False),
        (["replicate", "--scenario", "paper_like", "--n", "60", "--replicates", "2",
          "--format", "csv", "--out", "{tmp}/replicate.csv"], False),
        (["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "effects",
          "--format", "json", "--out", "{tmp}/diagnose.json"], True),
        (["simulate", "--scenario", "paper_like", "--out", "{tmp}/trial.csv",
          "--truth-out", "{tmp}/truth.json"], True),
    ],
    ids=["estimate-csv", "replicate-md", "replicate-csv", "diagnose-json", "simulate"],
)
def test_json_is_loaded_only_to_write_json(argv, writes_json, tmp_path):
    loaded = loaded_modules([str(a).format(tmp=tmp_path) for a in argv], "json")
    assert ("json" in loaded) == writes_json, loaded


# every command loads these; a command loads the rest only if it runs them
COMMON = ["pcekit", "pcekit.cli", "pcekit.core", "pcekit.errors", "pcekit.estimators",
          "pcekit.glm", "pcekit.resampling"]


def test_bare_import_loads_no_submodule():
    assert loaded_modules(["package"], "pcekit") == ["pcekit"]


@pytest.mark.parametrize(
    ("argv", "runs"),
    [
        (["cli"], []),
        (["estimate", "--input", DATA / "crossover_missing.csv", "--bootstrap", "20",
          "--out", "{tmp}/estimate.md"], []),
        (["diagnose", "--input", DATA / "crossover_missing.csv", "--checks", "all",
          "--bootstrap", "20", "--out", "{tmp}/diagnose.md"], ["pcekit.diagnostics"]),
        (["simulate", "--scenario", "paper_like", "--out", "{tmp}/trial.csv",
          "--truth-out", "{tmp}/truth.json"], ["pcekit.simulator"]),
        (["replicate", "--scenario", "paper_like", "--n", "60", "--replicates", "2",
          "--out", "{tmp}/replicate.md"], ["pcekit.simulator"]),
    ],
    ids=["import-cli", "estimate", "diagnose", "simulate", "replicate"],
)
def test_command_loads_only_the_modules_it_runs(argv, runs, tmp_path):
    loaded = loaded_modules([str(a).format(tmp=tmp_path) for a in argv], "pcekit")
    assert loaded == sorted(COMMON + runs)
