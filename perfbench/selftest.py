"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on tiny splits and short passes, traced and untraced,
against a reference recorded in memory, and checks that each correctness
check passes on good outputs and fails on broken ones: a perturbed
reference, a diverged loss, an evaluation that differs between calls and a
checkpoint that does not survive the round trip. It also checks that every
metric named in BENCHMARK.json is produced, and that the benchmark fails
without printing a result when the program's sources are absent.
Takes about 20 seconds on a 2-core x86-64 box.
"""

import machine  # noqa: F401  (pins BLAS threads before numpy loads)

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import desk
import numpy as np
import run
import workloads as wl
from imnav import evaluation as ev
from imnav import numcore as nc
from imnav import training as tr

OUT = run.OUT / "selftest"
SEED = 7


def expect(ok, what):
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def tiny_plan():
    spec = desk.with_world_counts(desk.read_spec(), 16, 6, 6)
    return wl.Plan(spec=spec, base_iterations=4, finetune_iterations=4, setup_repeats=2)


def execute(name, plan, reference, trace=False):
    return run.execute(name, plan, SEED, 0, trace, reference, OUT)


def failures(result):
    return " | ".join(result["failures"])


def check_pure_functions(reference):
    rows = reference["train_base"]["loss"]
    expect(wl.nonfinite_rows(rows) == 0, "finite loss rows pass")
    expect(wl.nonfinite_rows(rows + [[math.nan, 0.0], [1.0, math.inf]]) == 2,
           "non-finite loss rows are counted")
    expect(wl.losses_match(rows, [[x * (1 + 1e-6) for x in r] for r in rows]),
           "a loss curve within float32 tolerance matches")
    expect(not wl.losses_match(rows, [[x * (1 + 1e-3) for x in r] for r in rows]),
           "a loss curve off by 1e-3 does not match")
    expect(not wl.losses_match(rows, rows[:-1]), "a shorter loss curve does not match")
    ev_ref = reference["eval_policies"]
    expect(wl.eval_match(ev_ref, copy.deepcopy(ev_ref)), "equal evaluation metrics match")
    for field, delta in ((0, 1.0 / 6), (2, 1e-6)):
        bad = copy.deepcopy(ev_ref)
        bad["null/val_unseen"][field] += delta
        expect(not wl.eval_match(bad, ev_ref), f"evaluation metric {field} changed does not match")

    ckpt = tr.load_checkpoint(wl.DATA_DIR / "base.ckpt")
    path = OUT / "selftest.ckpt"
    expect(wl.roundtrip(ckpt, path), "a checkpoint survives the save/load round trip")
    for mutate, what in ((lambda c: c.values["act_w"].__setitem__((0, 0), 1.0), "a value"),
                         (lambda c: c.adam_v["act_w"].__setitem__((0, 0), 1.0), "an Adam moment"),
                         (lambda c: c.adam_steps.__setitem__("base", 99), "a step count")):
        other = tr.load_checkpoint(path)
        mutate(other)
        expect(not wl.checkpoints_equal(ckpt, other), f"a checkpoint with {what} changed differs")
    path.unlink()


def check_runs(plan, reference):
    bench = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    for name in wl.WORKLOADS:
        for trace in (False, True):
            result = execute(name, plan, reference, trace)
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)}: every operation and check passes "
                   f"({result['attempted']} attempted) {failures(result)}")
            if trace:
                listed, produced = bench["per_layer"], result["layers"]
            else:
                listed = bench["end_to_end"]
                produced = {m["name"]: (result["metrics"][m["name"]], m["unit"]) for m in listed}
            expect(all(math.isfinite(produced[m["name"]][0]) and produced[m["name"]][0] > 0
                       and produced[m["name"]][1] == m["unit"] for m in listed),
                   f"{name} trace={int(trace)}: every BENCHMARK.json metric is produced, "
                   f"> 0, in its unit")
        bad = copy.deepcopy(reference)
        key = next(iter(bad[name]))
        bad[name][key] = (np.asarray(bad[name][key]) * 1.01).tolist()
        result = execute(name, plan, bad)
        expect("reference outputs" in failures(result), f"{name}: a wrong reference is caught")


def check_injected_faults(plan, reference):
    original_loss = tr.total_loss
    tr.total_loss = lambda l_base, l_aux, lam: nc.scale(original_loss(l_base, l_aux, lam),
                                                         math.nan)
    try:
        result = execute("train_base", plan, reference)
    finally:
        tr.total_loss = original_loss
    expect(result["failed"] >= 2 * plan.base_iterations,
           "a diverged loss fails every iteration of its pass")

    original_eval = ev.evaluate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        rec = original_eval(*args, **kwargs)
        return dataclasses.replace(rec, ne_mean=rec.ne_mean + len(calls))

    ev.evaluate = flaky
    try:
        result = execute("eval_policies", plan, reference)
    finally:
        ev.evaluate = original_eval
    expect("evaluating twice" in failures(result), "an evaluation that changes is caught")

    original_load = tr.load_checkpoint

    def lossy(path):
        ckpt = original_load(path)
        ckpt.values["act_w"][0, 0] += 1.0
        return ckpt

    tr.load_checkpoint = lossy
    try:
        result = execute("train_base", plan, reference)
    finally:
        tr.load_checkpoint = original_load
    expect("checkpoint round trip" in failures(result), "a lossy checkpoint round trip is caught")


def check_without_sources():
    """Only BENCHMARK.json and perfbench/: the run fails and prints no result."""
    root = OUT / "stripped"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(run.HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.BENCHMARK, root / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_base",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=180)
    shutil.rmtree(root)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program's sources the run exits {proc.returncode} with no result")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    plan = tiny_plan()
    reference = wl.record_reference(plan)
    check_pure_functions(reference)
    check_runs(plan, reference)
    check_injected_faults(plan, reference)
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
