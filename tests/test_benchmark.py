"""The benchmark's own self-test (perfbench/selftest.py), and its reference
passes at full size.

The self-test fails when a change breaks what the benchmark relies on: the
functions its tracer wraps, one `agent.rollout` call per episode, one
`training.three_stage_schedule` call per iteration, and the checks that each
run makes. Takes about 20 seconds on a 2-core x86-64 box.

The reference test runs each workload's seed-101 pass at full size and
compares it with perfbench/data/reference.json within the benchmark's own
tolerances, so a float-level change that drifts out of them fails here.
Takes a few seconds.

The desk-data test checks that the splits perfbench times at set-up are the
splits the program builds from the same spec.
"""

import json
import subprocess
import sys
from pathlib import Path

from imnav import harness
from imnav import world as wd

ROOT = Path(__file__).resolve().parent.parent

# run from perfbench/, with one BLAS thread as every benchmark run has
REFERENCE_PASSES = """
import machine  # noqa: F401  (pins BLAS threads before numpy loads)

import json

import desk
import workloads as wl

plan = wl.Plan(spec=desk.read_spec())
want = json.loads((wl.DATA_DIR / "reference.json").read_text(encoding="utf-8"))
sizes = (want["ref_seed"], want["base_iterations"], want["finetune_iterations"])
assert sizes == (plan.ref_seed, plan.base_iterations, plan.finetune_iterations), sizes
got = wl.record_reference(plan)
for name in wl.WORKLOADS:
    ok = wl.reference_ok(name, got[name], want[name])
    print(name, "matches" if ok else "DIFFERS", json.dumps(got[name]) if not ok else "")
    assert ok, name
"""

# run from perfbench/: perfbench's desk splits, as `world_rows` gives them
DESK_SPLITS = f"""
import machine  # noqa: F401  (pins BLAS threads before numpy loads)

import json
import sys

import desk

sys.path.insert(0, {str(ROOT / "tests")!r})
from test_benchmark import world_rows

print(json.dumps(world_rows(desk.build_splits(desk.read_spec()))))
"""


def world_rows(splits):
    """Per world of `splits`, in split and world order: its split, draws,
    instruction tokens, token ids, and each imagination's emitted class and
    feature bytes."""
    return [[name, *wd.fork_draws(item.episode.world), item.record.instruction.tokens,
             item.token_ids, [[im.emitted_class, im.feature.tobytes().hex()]
                              for im in item.imaginations]]
            for name in wd.SPLITS for item in splits[name].items]


def test_perfbench_builds_the_desk_data_the_program_builds():
    """perfbench/desk.py reads desk.cfg and assembles the splits with its own
    code; its set-up time measures the program's split build only while both
    give the same draws, tokens, token ids and imagination features, bit for
    bit."""
    proc = subprocess.run([sys.executable, "-c", DESK_SPLITS], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    got = json.loads(proc.stdout)
    spec = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg")
    want = json.loads(json.dumps(world_rows(harness.build_spec_splits(spec))))
    assert len(want) == spec.train_worlds + spec.val_seen_worlds + spec.val_unseen_worlds
    assert got == want


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_reference_passes_match_recorded_reference():
    proc = subprocess.run([sys.executable, "-c", REFERENCE_PASSES], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.count("matches") == 3, proc.stdout
