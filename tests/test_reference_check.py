import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tree_passes_every_reference_seed_of_a_workload_against_head():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reference_check.py"), "HEAD",
                           "--workload", "estimate_boot_small"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"estimate_boot_small seed {s}" for s in range(4)]
    assert all("reference check passes" in line for line in lines)
