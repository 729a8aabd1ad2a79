"""The benchmark's own correctness check: every workload's outputs against perfbench/refs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_outputs_match_their_refs():
    # --tiny runs a few items of every workload once; each output is compared
    # with its recorded ref within the harness's TRACE_TOL
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--tiny"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
