"""The benchmark's traced correctness check (`perfbench/run.py --trace 1`)
on a copy of the checkout.  A traced run is incorrect when a count differs
between its passes or when a metric that perfbench/predictions.json expects
to be nonzero on the workload reads zero, e.g. a layer that no longer runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"


def _listing():
    return sorted(p.name for p in RESULTS.iterdir()) if RESULTS.is_dir() else []


# annulus-sweep runs at bench size: at smoke size its windows end below the
# Hankel split radius r_c = 16, so its Hankel and chirp-Z counts read zero
@pytest.mark.parametrize("workload, size", [
    ("freq-sweep", "smoke"), ("annulus-sweep", "bench"),
    ("picard", "smoke"), ("dense-oracle", "smoke"),
])
def test_traced_run_correct(workload, size, tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    before = _listing()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", size,
         "--trace", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-4000:]
    assert _listing() == before
