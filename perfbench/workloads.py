"""The three workloads and their correctness checks.

A run sets up several times (building the desk splits and loading the
checkpoints the workload needs), then measures whole passes until the time
is up, then runs the checks that need the measured outputs. The first pass
of every run uses the reference seed, and its outputs are compared with the
reference recorded in data/reference.json. The other passes use seeds
derived from the run's seed.

- train_base: one pass is a flat-schedule base training of
  `base_iterations` iterations without imaginations.
- finetune: one pass is a cosine, then an InfoNCE, three-stage finetune of
  `finetune_iterations` iterations each from the base checkpoint; with the
  desk stage fractions all three stages run.
- eval_policies: one pass is a greedy evaluation of the imagine checkpoint
  on val_seen and val_unseen under every imagination policy.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

import desk
import numpy as np
from clock import TRAIN_LOOPS, Clock
from imnav import evaluation as ev
from imnav import training as tr
from tracing import Tracer

DATA_DIR = Path(__file__).resolve().parent / "data"
EVAL_SPLITS = ("val_seen", "val_unseen")
# loss curves may move by float32 rounding only (reordered sums, fused ops)
LOSS_RTOL = 1e-4
LOSS_ATOL = 1e-5
# metric arithmetic is float64; the same trajectories give the same sums
EVAL_RTOL = 1e-9


@dataclass(frozen=True)
class Plan:
    """Sizes of one run; the self-test shrinks them."""
    spec: dict
    base_iterations: int = 25
    finetune_iterations: int = 16
    setup_repeats: int = 5
    ref_seed: int = 101       # desk.cfg's first seed


class Ledger:
    """Operations attempted and failed; failed checks are listed by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def crash(self, attempted, what):
        """A pass that raised: all its operations fail; the traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.ops(attempted, attempted)
        self.failures.append(what)

    def check(self, ok, what):
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.failures.append(what)
        return ok


class Timing:
    """Measured wall times of one pass, in nanoseconds, and the machine speed
    measured before each item (see clock.py)."""

    def __init__(self, window):
        self.work_ns = 0          # inside training.train / evaluation.evaluate, no kernels
        self.episodes = 0         # batch x iterations, or greedy episodes
        self.item_ns = []         # per optimiser iteration, or per greedy episode
        self.speeds = []          # machine speed from the kernel before each item
        self.window = window      # items on each side whose kernels scale an item


# ---------------------------------------------------------------------------
# checks (pure functions; the self-test feeds them broken inputs)
# ---------------------------------------------------------------------------

def nonfinite_rows(loss_rows):
    return sum(1 for row in loss_rows if not all(math.isfinite(x) for x in row))


def losses_match(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=LOSS_RTOL,
                                                        atol=LOSS_ATOL))


def eval_match(got, want):
    """SR equal, SPL/NE/TL equal up to float64 summation order, per policy/split."""
    if sorted(got) != sorted(want):
        return False
    for key, (sr, *rest) in got.items():
        wsr, *wrest = want[key]
        if sr != wsr or not all(math.isclose(a, b, rel_tol=EVAL_RTOL)
                                for a, b in zip(rest, wrest)):
            return False
    return True


def checkpoints_equal(a, b):
    """Every field of two checkpoints equal, arrays bit for bit."""
    for f in fields(tr.Checkpoint):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict) and x and isinstance(next(iter(x.values())), np.ndarray):
            if sorted(x) != sorted(y) or not all(
                    x[k].dtype == y[k].dtype and np.array_equal(x[k], y[k]) for k in x):
                return False
        elif x != y:
            return False
    return True


def roundtrip(ckpt, path):
    tr.save_checkpoint(ckpt, path)
    return checkpoints_equal(ckpt, tr.load_checkpoint(path))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def pass_seeds(plan, seed):
    """The reference pass first, then seeds derived from the run's seed."""
    yield plan.ref_seed
    i = 0
    while True:
        yield seed * 1000 + i
        i += 1


class Workload:
    needs = ()       # checkpoints in data/ that set-up loads

    def setup(self, plan):
        splits = desk.build_splits(plan.spec)
        acfg = desk.agent_config(plan.spec, splits)
        ckpts = {}
        for name in self.needs:
            ckpts[name] = tr.load_checkpoint(DATA_DIR / f"{name}.ckpt")
            if ckpts[name].agent_config != acfg:
                raise AssertionError(f"{name}.ckpt was trained for {ckpts[name].agent_config}, "
                                     f"the desk spec builds {acfg}")
        return dict(splits=splits, acfg=acfg, ckpts=ckpts)


class TrainWorkload(Workload):
    window = 2      # iterations of ~0.1 s on each side share calibration kernels

    def _train(self, tracer, timing, ledger, inputs, cfg, **kwargs):
        """One timed training.train call; returns (checkpoint, loss rows)."""
        first = len(tracer.iter_marks)
        t0 = time.perf_counter_ns()
        try:
            ckpt, curves = tr.train(inputs["splits"]["train"], inputs["acfg"], cfg, **kwargs)
        except Exception:  # a diverged or crashed pass fails all its iterations
            ledger.crash(cfg.iterations, f"training.train raised (seed {cfg.seed})")
            return None, []
        t1 = time.perf_counter_ns()
        marks = tracer.iter_marks[first:]
        # an iteration runs from the end of its kernel to the start of the next one
        ends = [before for before, _, _ in marks[1:]] + [t1]
        items = [end - after for (_, after, _), end in zip(marks, ends)]
        timing.item_ns += items
        timing.speeds += [speed for _, _, speed in marks]
        timing.work_ns += marks[0][0] - t0 + sum(items)
        timing.episodes += cfg.batch_size * len(curves)
        rows = [[l_base, l_aux] for _, l_base, l_aux, _ in curves]
        ledger.ops(cfg.iterations, nonfinite_rows(rows) + cfg.iterations - len(rows))
        return ckpt, rows


class TrainBase(TrainWorkload):
    def run_pass(self, plan, inputs, seed, tracer, timing, ledger):
        cfg = desk.base_config(plan.spec, seed, plan.base_iterations)
        ckpt, rows = self._train(tracer, timing, ledger, inputs, cfg)
        return {"loss": rows}, ckpt


class Finetune(TrainWorkload):
    needs = ("base",)

    def run_pass(self, plan, inputs, seed, tracer, timing, ledger):
        out, ckpt = {}, None
        for aux in ("cosine", "infonce"):
            cfg = desk.finetune_config(plan.spec, seed, plan.finetune_iterations, aux)
            ckpt, out[aux] = self._train(tracer, timing, ledger, inputs, cfg,
                                         init_values=inputs["ckpts"]["base"].values)
        return out, ckpt


class EvalPolicies(Workload):
    needs = ("imagine",)
    window = 10     # episodes of ~4 ms on each side share calibration kernels

    def setup(self, plan):
        inputs = super().setup(plan)
        inputs["agent"] = tr.agent_from_checkpoint(inputs["ckpts"]["imagine"])
        return inputs

    def run_pass(self, plan, inputs, seed, tracer, timing, ledger):
        out = {}
        for policy in ev.POLICIES:
            for split in EVAL_SPLITS:
                items = inputs["splits"][split].items
                first = len(tracer.greedy)
                t0 = time.perf_counter_ns()
                try:
                    rec = ev.evaluate(inputs["agent"], items, policy, seed=seed, split=split)
                except Exception:  # a crashed evaluation fails all its episodes
                    ledger.crash(len(items), f"evaluation.evaluate raised ({policy}, {split})")
                    continue
                wall = time.perf_counter_ns() - t0
                greedy = tracer.greedy[first:]
                timing.work_ns += wall - sum(kernel_ns for _, kernel_ns, _ in greedy)
                timing.item_ns += [ns for ns, _, _ in greedy]
                timing.speeds += [speed for _, _, speed in greedy]
                timing.episodes += rec.count
                ledger.ops(rec.count)
                out[f"{policy}/{split}"] = [rec.sr, rec.spl, rec.ne_mean, rec.tl_mean]
        return out, inputs["ckpts"]["imagine"]


WORKLOADS = {"train_base": TrainBase(), "finetune": Finetune(), "eval_policies": EvalPolicies()}


def reference_ok(name, got, want):
    if name == "eval_policies":
        return eval_match(got, want)
    return sorted(got) == sorted(want) and all(losses_match(got[k], want[k]) for k in want)


def setup(name, plan, clock):
    """Set up `setup_repeats` times; returns (inputs, wall seconds per set-up,
    machine speed after each set-up)."""
    walls, speeds = [], []
    for _ in range(plan.setup_repeats):
        t0 = time.perf_counter()
        inputs = WORKLOADS[name].setup(plan)
        walls.append(time.perf_counter() - t0)
        speeds.append(clock.kernel(TRAIN_LOOPS))
    return inputs, walls, speeds


def measure(name, plan, inputs, seed, seconds, tracer, ledger, reference, min_passes=2):
    """Run whole passes until `seconds` have passed, at least `min_passes`.

    Checks the reference pass against `reference` (skipped when None) and,
    for evaluation, that repeating the first seeded pass gives identical
    results. Returns ([Timing per pass], checkpoint of the last pass).
    """
    workload = WORKLOADS[name]
    seeds = pass_seeds(plan, seed)
    passes = []

    def timed_pass(s):
        passes.append(Timing(workload.window))
        return workload.run_pass(plan, inputs, s, tracer, passes[-1], ledger)

    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        s = next(seeds)
        out, ckpt = timed_pass(s)
        if len(passes) == 1 and reference is not None:
            ledger.check(reference_ok(name, out, reference[name]), f"{name}: reference outputs")
        if len(passes) == 2 and name == "eval_policies":
            again, _ = timed_pass(s)
            ledger.check(again == out, f"{name}: evaluating twice gives identical results")
    return passes, ckpt


def end_to_end(passes, setup_walls, setup_speeds, peak_rss_mb, ref=True):
    """The end-to-end metrics of one run (names as in BENCHMARK.json), at the
    reference machine speed, or in raw wall time when `ref` is false."""
    item_ms, work_s = [], 0.0
    for p in passes:
        scales = Clock.scales(p.speeds, p.window) if ref else [1.0] * len(p.item_ns)
        item_ms += [ns / 1e6 * k for ns, k in zip(p.item_ns, scales)]
        # work outside the items is scaled by the pass's median scale
        rest_ns = p.work_ns - sum(p.item_ns)
        work_s += (sum(ns * k for ns, k in zip(p.item_ns, scales))
                   + rest_ns * statistics.median(scales or [1.0])) / 1e9
    # nan when every pass failed; the run is then reported as not correct
    p50, p90 = np.percentile(item_ms, [50, 90]) if item_ms else (math.nan, math.nan)
    return {
        "setup_s": statistics.median(setup_walls) * (
            statistics.median(setup_speeds) if ref else 1.0),
        "episodes_per_s": sum(p.episodes for p in passes) / work_s if work_s else math.nan,
        "iter_ms.p50": float(p50),
        "iter_ms.p90": float(p90),
        "peak_rss_mb": peak_rss_mb,
    }


def record_reference(plan):
    """Outputs of each workload's reference pass, to store as the reference."""
    ref = {"ref_seed": plan.ref_seed, "base_iterations": plan.base_iterations,
           "finetune_iterations": plan.finetune_iterations}
    for name in WORKLOADS:
        tracer, ledger = Tracer(), Ledger()
        with tracer.installed():
            inputs = WORKLOADS[name].setup(plan)
            ref[name], _ = WORKLOADS[name].run_pass(plan, inputs, plan.ref_seed, tracer,
                                                    Timing(0), ledger)
        if ledger.failed:
            raise RuntimeError(f"{name}: reference pass failed: {ledger.failures}")
    return ref
