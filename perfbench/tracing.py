"""Spans and counters recorded from outside the program.

Public functions are wrapped at their module (or class) attributes for the
duration of a `Tracer.installed()` block. Every call site in imnav goes
through `alias.func` (`ag.rollout`, `nc.backward`, `wd.observation_at`) or a
module-global name, so the wrappers see every call. Spans stay in memory and
are written as JSONL when the run ends. A span's self time is its duration
minus the durations of its direct child spans.

Two timers are also installed in untraced runs, because the end-to-end
metrics need them: one timestamp per optimiser iteration at
`training.three_stage_schedule` (called exactly once per iteration) and the
duration of each greedy `agent.rollout` call. Each timer costs about a
microsecond. The calibration kernel of clock.py runs at the same two points,
in untraced runs only.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial

import numpy as np
from clock import EVAL_LOOPS, TRAIN_LOOPS, Clock
from imnav import agent as ag
from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import imagination as im
from imnav import instructions as ins
from imnav import numcore as nc
from imnav import training as tr
from imnav import world as wd

# (owner, attribute, span name)
SPANNED = (
    (wd, "generate_world", "world.generate_world"),
    (wd, "observation_at", "world.observation_at"),
    (wd, "shortest_path", "world.shortest_path"),
    (ins, "build_corpus", "instructions.build_corpus"),
    (im, "imagine_dataset", "imagination.imagine_dataset"),
    (ds, "build_split", "dataset.build_split"),
    (ag.Agent, "encode_text", "agent.encode_text"),
    (ag.Agent, "encode_imaginations", "agent.encode_imaginations"),
    (ag.Agent, "encode_observation", "agent.encode_observation"),
    (ag.Agent, "cross_modal_step", "agent.cross_modal_step"),
    (ag, "build_context", "agent.build_context"),
    (nc, "backward", "numcore.backward"),
    (nc.Adam, "step", "numcore.Adam.step"),
    (tr, "imitation_loss", "training.imitation_loss"),
    (tr, "cosine_alignment_loss", "training.cosine_alignment_loss"),
    (tr, "infonce_loss", "training.infonce_loss"),
    (tr, "train", "training.train"),
    (tr, "save_checkpoint", "training.save_checkpoint"),
    (tr, "load_checkpoint", "training.load_checkpoint"),
    (ev, "evaluate", "evaluation.evaluate"),
    (ev, "apply_policy", "evaluation.apply_policy"),
)

# public numcore ops; calls through the module attribute are counted
OPS = ("constant", "matmul", "add", "sub", "mul", "scale", "relu", "sigmoid", "tanh",
       "softmax", "dropout", "concat", "mean", "sum_", "l2_norm", "cosine_similarity",
       "cross_entropy", "take_rows", "reshape", "transpose")

ROLLOUT = "agent.rollout"
AGENT_SPANS = ("agent.rollout", "agent.build_context", "agent.encode_text",
               "agent.encode_imaginations", "agent.encode_observation", "agent.cross_modal_step")


class Tracer:
    """Collects iteration timestamps and rollout durations always, and spans
    and counters when `spans` is true."""

    def __init__(self, spans=False, clock=None):
        self.tracing = spans
        self.clock = clock or Clock(enabled=False)
        self.phase = "setup"
        # per optimiser iteration: (ns before the kernel, ns after it, machine speed)
        self.iter_marks = []
        # per greedy rollout: (duration ns, kernel ns, machine speed)
        self.greedy = []
        self.spans = []           # [name, phase, start_ns, end_ns, parent index]
        self._stack = []
        self.counts = Counter()   # (phase, counter) -> value

    # -- recording --------------------------------------------------------

    def count(self, key, n=1):
        self.counts[(self.phase, key)] += n

    def _enter(self, name):
        self.spans.append([name, self.phase, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][3] = time.perf_counter_ns()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _schedule(self, fn):
        def wrapper(iteration, cfg):
            before = time.perf_counter_ns()
            speed = self.clock.kernel(TRAIN_LOOPS)
            self.iter_marks.append((before, time.perf_counter_ns(), speed))
            self.count("iterations")
            return fn(iteration, cfg)
        return wrapper

    def _rollout(self, fn):
        def wrapper(agent, episode, token_ids, tokens, imaginations, mode, *args, **kwargs):
            timed = mode == "argmax"
            before = time.perf_counter_ns()
            speed = self.clock.kernel(EVAL_LOOPS) if timed else None
            if self.tracing:
                self._enter(ROLLOUT)
            t0 = time.perf_counter_ns()
            try:
                traj = fn(agent, episode, token_ids, tokens, imaginations, mode, *args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                if self.tracing:
                    self._exit()
            if timed:
                self.greedy.append((t1 - t0, t0 - before, speed))
            if self.tracing:
                self.count("episodes")
                self.count("steps", len(traj.actions))
                self.count("aux_pairs", len(traj.aux_pairs))
                if mode == "argmax":
                    self.count("eval_episodes")
                    self.count("truncated", int(traj.truncated))
            return traj
        return wrapper

    def _build_context(self, fn):
        def wrapper(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            self.count("imag_tokens", 0 if ctx.imag is None else ctx.imag.shape[0])
            return ctx
        return wrapper

    def _adam_step(self, fn):
        def wrapper(opt, lr_by_group):
            for name, t in opt.store.items():
                if t.grad is not None and np.any(t.grad):
                    self.count("grad_elems", t.grad.size)
                    if lr_by_group.get(opt.store.group_of(name), 0.0) == 0.0:
                        self.count("frozen_grad_elems", t.grad.size)
            return fn(opt, lr_by_group)
        return wrapper

    def _op(self, fn):
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, "ops")] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public functions; the originals are restored on exit."""
        hooks = [(tr, "three_stage_schedule", self._schedule), (ag, "rollout", self._rollout)]
        if self.tracing:
            hooks += [(ag, "build_context", self._build_context),
                      (nc.Adam, "step", self._adam_step)]
            hooks += [(nc, op, self._op) for op in OPS]
            # span wrappers go outermost, so counter hooks run inside the span
            hooks += [(owner, attr, partial(self._spanned, name))
                      for owner, attr, name in SPANNED]
        originals = []
        try:
            for owner, attr, wrap in hooks:
                original = owner.__dict__[attr]
                setattr(owner, attr, wrap(original))
                originals.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def span_totals(self):
        """(phase, name) -> [calls, total_ns, self_ns]."""
        child_ns = [0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            row = out[(phase, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, phase, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "phase": phase, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    def report(self, setups):
        """Per-module metrics from the spans and counters: name -> (value, unit).

        Set-up metrics are per set-up; `_per_iter` metrics are per optimiser
        iteration and `_per_episode` metrics per rollout (teacher-forced in
        training, greedy in evaluation) of the measured passes.
        """
        spans = self.span_totals()

        def count(key, phase="measure"):
            return self.counts[(phase, key)]

        def ms(name, phase="measure", own=False):
            return spans[(phase, name)][2 if own else 1] / 1e6

        def per_call_ms(name):
            rows = [v for (_, n), v in spans.items() if n == name]
            calls = sum(r[0] for r in rows)
            return sum(r[1] for r in rows) / 1e6 / calls if calls else 0.0

        out = {}
        for name in ("world.generate_world", "instructions.build_corpus",
                     "imagination.imagine_dataset"):
            out[name + ".ms"] = (ms(name, "setup") / setups, "ms")
        out["dataset.build_split.self_ms"] = (ms("dataset.build_split", "setup", own=True) / setups,
                                              "ms")
        iters, episodes = count("iterations"), count("episodes")
        units = [("per_episode", episodes)] + ([("per_iter", iters)] if iters else [])
        for suffix, n in units:
            for name in AGENT_SPANS + ("world.observation_at",):
                out[f"{name}.self_ms_{suffix}"] = (ms(name, own=True) / n, "ms")
            out[f"numcore.ops_{suffix}"] = (count("ops") / n, "count")
        out["agent.steps_per_episode"] = (count("steps") / episodes, "count")
        out["imagination.tokens_per_episode"] = (count("imag_tokens") / episodes, "count")
        if iters:
            for name in ("numcore.backward", "numcore.Adam.step", "training.imitation_loss",
                         "training.cosine_alignment_loss", "training.infonce_loss"):
                out[f"{name}.ms_per_iter"] = (ms(name) / iters, "ms")
            out["training.train.self_ms_per_iter"] = (ms("training.train", own=True) / iters, "ms")
            out["training.aux_pairs_per_iter"] = (count("aux_pairs") / iters, "count")
            out["numcore.frozen_grad_share"] = (
                count("frozen_grad_elems") / max(count("grad_elems"), 1), "ratio")
        evals = count("eval_episodes")
        if evals:
            out["world.shortest_path.self_ms_per_episode"] = (
                ms("world.shortest_path", own=True) / evals, "ms")
            out["evaluation.evaluate.self_ms_per_episode"] = (
                ms("evaluation.evaluate", own=True) / evals, "ms")
            out["evaluation.apply_policy.ms"] = (per_call_ms("evaluation.apply_policy"), "ms")
            out["evaluation.truncated_share"] = (count("truncated") / evals, "ratio")
        out["training.save_checkpoint.ms"] = (per_call_ms("training.save_checkpoint"), "ms")
        out["training.load_checkpoint.ms"] = (per_call_ms("training.load_checkpoint"), "ms")
        out["training.checkpoint_bytes"] = (count("checkpoint_bytes", "checkpoint"), "bytes")
        return out
