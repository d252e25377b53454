"""Runs the benchmark's own self-test (perfbench/selftest.py).

It fails when a change breaks what the benchmark relies on: the functions its
tracer wraps, one `agent.rollout` call per episode, one
`training.three_stage_schedule` call per iteration, and the checks that each
run makes. Takes about 20 seconds on a 2-core x86-64 box.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
