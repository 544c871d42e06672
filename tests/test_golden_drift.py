import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_drift.py"
_SPEC = importlib.util.spec_from_file_location("golden_drift", _PATH)
golden_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_drift)

OLD = "stratum,point,se,note\nS00,-22.5,2.5,\nS01,17.25,1e-3,\nS10,NA,NA,inestimable\n"


def test_drift_counts_changed_numbers_and_the_largest_relative_change():
    assert golden_drift.drift(OLD, OLD) == (0, 0.0, None)
    new = OLD.replace("-22.5,", "-22.500000000000004,").replace("1e-3", "0.0010000000000000002")
    changed, largest, text = golden_drift.drift(OLD, new)
    assert (changed, text) == (2, None)
    assert largest == abs(0.0010000000000000002 - 1e-3) / 1e-3
    # S01 names a stratum, so it is text, not a number
    assert golden_drift.drift(OLD, OLD.replace("S01", "S02")).text == "text differs at line 3"


def test_drift_reports_anything_but_numbers_as_text():
    assert golden_drift.drift(OLD, OLD.replace("S10,NA", "S10,3.5")).text == "text differs at line 4"
    assert golden_drift.drift(OLD, OLD.replace("inestimable", "")).text == "text differs at line 4"
    assert golden_drift.drift(OLD, OLD + "S11,1.0,2.0,\n").text == "4 rows, now 5"


def test_main_reads_the_revision_with_git_and_exits_one_on_text(tmp_path, monkeypatch, capsys):
    data = tmp_path / "tests" / "data"
    data.mkdir(parents=True)
    at_rev = {"tests/data/a.out.csv": OLD, "tests/data/b.out.csv": OLD,
              "tests/data/in.csv": "x\n1\n", "tests/data/gone.out.csv": OLD}
    (data / "a.out.csv").write_text(OLD.replace(",2.5,", ",2.5000000000000004,"))
    (data / "b.out.csv").write_text(OLD)
    (data / "in.csv").write_text("x\n1\n")

    def git(*args):
        if args[0] == "ls-tree":
            return "\n".join(at_rev) + "\n"
        if args[0] == "ls-files":
            return "\n".join(f"tests/data/{p.name}" for p in data.iterdir()) + "\n"
        assert args[0] == "show" and args[1].startswith("REV:")
        return at_rev[args[1][4:]]

    monkeypatch.setattr(golden_drift, "ROOT", tmp_path)
    monkeypatch.setattr(golden_drift, "_git", git)
    assert golden_drift.main(["REV"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.out.csv: 1 numbers changed, largest relative change 1.8e-16",
        "gone.out.csv: gone",
        "total: 1 numbers changed, largest relative change 1.8e-16",
    ]
    del at_rev["tests/data/gone.out.csv"]
    assert golden_drift.main(["REV"]) == 0
    (data / "in.csv").write_text("x\n2\n")
    assert golden_drift.main(["REV"]) == 1
    assert "in.csv: changed, and it is not an output" in capsys.readouterr().out
