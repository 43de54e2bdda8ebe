"""The benchmark (gwbench/, declared by BENCHMARK.json) runs against this
checkout's src/: one traced run of the walk workload (x-uniform steps) and
one of the audit workload (per-site steps) in a scratch copy must each exit
0 and report every operation correct, so a change to the package that
breaks the benchmark's wrappers or workloads fails here."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["walk", "audit"])
def test_traced_benchmark_runs_on_this_source(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", ".gwbench")
    for name in ("src", "gwbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "gwbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
