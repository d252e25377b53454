"""Imitation objective, alignment losses, staged finetuning, checkpoints.

Training follows the finetune-from-a-trained-base recipe: a base agent is
first trained with a flat learning rate and no imaginations; imagination
conditions then finetune from that checkpoint under the three-stage schedule
(stage 1 trains only the imagination encoder and type embedding with the base
frozen, stage 2 unfreezes the base at a much lower rate, stage 3 trains
everything at a common low rate). Stage learning rates keep the published
ratios and are scaled by a global multiplier for desk-scale convergence.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import agent as ag
from . import numcore as nc
from . import serial
from .errors import ConfigurationError, ContractError, FormatError, TrainingDiverged

CHECKPOINT_MAGIC = b"IMNAV"
CHECKPOINT_VERSION = 1

IMAGINATION_GROUPS = ("imagination_encoder", "type_embedding")

# (imagination groups, base) learning rates of the three finetune stages, in
# the published ratios; TrainConfig.lr_multiplier scales them
STAGE_LRS = ((1e-4, 0.0), (5e-5, 1e-6), (1e-6, 1e-6))


def check_number(name, value, positive=True):
    """Raise ConfigurationError naming `name` unless `value` is a finite number
    > 0 (>= 0 when not `positive`)."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        raise ConfigurationError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                                 f"got {value}")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 8
    lam: float = 0.5                  # weight on the cosine alignment loss
    aux_loss: str = "cosine"          # cosine | infonce | none
    infonce_lam: float = 0.2
    tau: float = 0.1
    stage_fractions: tuple[float, ...] = (0.25, 0.25, 0.5)
    lr_multiplier: float = 10.0
    schedule: str = "three_stage"     # three_stage | flat
    flat_lr: float = 1e-3
    aux_in_all_stages: bool = False   # retired: only False; experiment specs still name it
    use_imaginations: bool = True     # False for base-agent pretraining
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stage_fractions", tuple(self.stage_fractions))
        if (len(self.stage_fractions) != 3 or min(self.stage_fractions) < 0.0
                or abs(sum(self.stage_fractions) - 1.0) > 1e-9):
            raise ConfigurationError("stage fractions must be three non-negative numbers "
                                     f"summing to 1, got {self.stage_fractions}")
        for name in ("lam", "infonce_lam"):
            check_number(name, getattr(self, name), positive=False)
        for name in ("tau", "lr_multiplier", "flat_lr"):
            check_number(name, getattr(self, name))
        if self.iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.aux_loss not in ("cosine", "infonce", "none"):
            raise ConfigurationError(f"unknown aux_loss {self.aux_loss!r}")
        if self.schedule not in ("three_stage", "flat"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.aux_in_all_stages:
            raise ConfigurationError("aux_in_all_stages = true is retired: the alignment loss "
                                     "runs from stage 2 on")

    @property
    def aux_lam(self):
        return self.infonce_lam if self.aux_loss == "infonce" else self.lam

    @property
    def stage_ends(self):
        """The iterations at which stages 1 and 2 of the staged finetune end."""
        f1, f2, _ = self.stage_fractions
        return math.floor(self.iterations * f1), math.floor(self.iterations * (f1 + f2))


@dataclass(frozen=True)
class LossBreakdown:
    l_base: float
    l_aux: float
    total: float
    n_im: int


@dataclass
class Checkpoint:
    version: int
    agent_config: ag.AgentConfig
    values: dict              # name -> np.ndarray (float32)
    adam_m: dict
    adam_v: dict
    adam_steps: dict          # group -> int
    iteration: int
    rng_state: dict


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def imitation_loss(logits, actions):
    """Teacher-forced cross-entropy: the mean over episodes of each episode's
    mean over its steps. `logits` holds the (ΣT, A) logits of every step in
    episode order (padding at -inf) and actions[b] the teacher actions of
    episode b."""
    counts = [len(episode) for episode in actions]
    if not counts or min(counts) == 0:
        raise ContractError("empty trajectory")
    if logits.values.ndim != 2 or logits.shape[0] != sum(counts):
        raise ContractError(f"logits of shape {logits.shape} vs {sum(counts)} teacher actions")
    weights = np.repeat([1.0 / (len(counts) * n) for n in counts], counts)
    steps = nc.cross_entropy(logits, np.concatenate(actions))
    return nc.sum_(nc.mul(steps, nc.constant(weights.astype(logits.dtype))))


def cosine_alignment_loss(h, s):
    """Mean (1 - cos(h_i, sbar_i)) over the rows of (P, d) h and s̄; zero
    when there are no pairs (h is None)."""
    if h is None:
        return nc.constant(np.float32(0.0))
    p = h.shape[0]
    # cos(h_i, sbar_i) is the diagonal of the pairwise cosine matrix
    cos = nc.take_rows(nc.reshape(nc.cosine_similarity(h, s), (p * p,)), np.arange(p) * (p + 1))
    return nc.mean(nc.add(nc.scale(cos, -1.0), nc.constant(np.float32(1.0))))


def infonce_loss(h, s, owners, tau):
    """Contrastive alignment over the rows of (P, d) h and s̄: positives are
    own noun-phrase means, negatives the noun-phrase means of other
    instructions in the batch.

    One row-wise cross-entropy over the P x P cosine matrix: the positive
    sits on the diagonal, and the other pairs of the same owner (the same
    instruction) are masked out. Zero when there are no pairs (h is None)."""
    if tau <= 0.0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    if h is None:
        return nc.constant(np.float32(0.0))
    if len(owners) != h.shape[0]:
        raise ContractError("owner list must align with pairs")
    owners = np.asarray(owners)
    keep = (owners[:, None] != owners[None, :]) | np.eye(len(owners), dtype=bool)
    logits = nc.add(nc.scale(nc.cosine_similarity(h, s), 1.0 / tau),
                    nc.constant(np.where(keep, 0.0, -np.inf).astype(np.float32)))
    return nc.mean(nc.cross_entropy(logits, np.arange(len(owners))))


def total_loss(l_base, l_aux, lam):
    if lam < 0.0:
        raise ConfigurationError("lambda must be >= 0")
    return nc.add(l_base, nc.scale(l_aux, lam))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def three_stage_schedule(iteration, cfg):
    """Per-group learning rate for the staged finetune (0 freezes a group)."""
    if not 0 <= iteration < cfg.iterations:
        raise ContractError(f"iteration {iteration} outside [0, {cfg.iterations})")
    if cfg.schedule == "flat":
        return {g: cfg.flat_lr for g in ("base",) + IMAGINATION_GROUPS}
    s1_end, s2_end = cfg.stage_ends
    stage = 0 if iteration < s1_end else 1 if iteration < s2_end else 2
    imag_lr, base_lr = (lr * cfg.lr_multiplier for lr in STAGE_LRS[stage])
    return {**dict.fromkeys(IMAGINATION_GROUPS, imag_lr), "base": base_lr}


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _diagnostic_dump(iteration, breakdown, params, opt):
    """The diverged iteration's losses, then per parameter its norm and the
    norm of the gradient its group's last Adam update applied, `none` before
    the group's first update (the iteration's own backward has not run)."""
    lines = [f"iteration={iteration}",
             f"l_base={breakdown.l_base} l_aux={breakdown.l_aux} total={breakdown.total}"]
    for name, t in params.items():
        g = opt.last_grad(name)
        last = "none" if g is None else f"{float(np.linalg.norm(g)):.4e}"
        lines.append(f"{name}\t|theta|={float(np.linalg.norm(t.values)):.4e}"
                     f"\t|last_update_grad|={last}")
    return "\n".join(lines)


@contextmanager
def _frozen_off_tape(params, lrs):
    """Take the parameters of groups with learning rate 0 off the tape for one
    iteration: ops that read only frozen weights record no node, and frozen
    weight gradients are never formed (their grads stay None)."""
    frozen = [t for name, t in params.items() if lrs[params.group_of(name)] == 0.0]
    for t in frozen:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in frozen:
            t.requires_grad = True


def _train_step(agent, opt, items, batch_idx, lrs, cfg, iteration, rng):
    """Forward, backward and update of one iteration. The iteration's tape
    lives only in this frame, so it is freed before the next forward."""
    params = agent.params
    # alignment pairs are built only in iterations whose loss reads them
    aux = cfg.aux_loss != "none" and (cfg.schedule == "flat" or iteration >= cfg.stage_ends[0])
    batch = [items[int(b)] for b in batch_idx]
    trajs = [ag.rollout(agent, item.episode, item.token_ids, item.record.tokens,
                        item.imaginations if cfg.use_imaginations else [],
                        "teacher", obs_rng=rng, kept_subs=item.record.kept, train=True, aux=aux)
             for item in batch]
    logits, h, s = ag.decide(agent, trajs)
    l_base = imitation_loss(logits, [t.actions for t in trajs])
    owners = [int(b) for b, t in zip(batch_idx, trajs) for _ in t.aux_pairs]
    if cfg.aux_loss == "cosine":
        l_aux = cosine_alignment_loss(h, s)
    elif cfg.aux_loss == "infonce":
        l_aux = infonce_loss(h, s, owners, cfg.tau)
    else:
        l_aux = nc.constant(np.float32(0.0))
    lam = cfg.aux_lam if cfg.aux_loss != "none" else 0.0
    total = total_loss(l_base, l_aux, lam)
    breakdown = LossBreakdown(l_base=float(l_base.values), l_aux=float(l_aux.values),
                              total=float(total.values), n_im=len(owners))
    if not math.isfinite(breakdown.total):
        raise TrainingDiverged(f"non-finite loss at iteration {iteration}",
                               dump=_diagnostic_dump(iteration, breakdown, params, opt))
    nc.backward(total)
    for name, t in params.items():
        if t.grad is None and lrs[params.group_of(name)] > 0.0:
            t.grad = np.zeros_like(t.values)  # trainable leaf off the compute path
    opt.step(lrs)
    return breakdown


# The state at the end of stage 1 of this process's last three-stage finetune:
# (split, key, Checkpoint, curve rows), or None (see train)
_stage1 = None


def clear_stage1():
    """Forget the stored stage 1, so that the next finetune computes its own."""
    global _stage1
    _stage1 = None


def _stage1_key(agent_config, cfg, init_values):
    """What stage 1 of a finetune reads besides its split, or None when train
    neither keeps nor reuses stage 1. Stage 1 reads none of the alignment
    loss's fields, so they are set to fixed values."""
    if cfg.schedule == "flat" or init_values is None or cfg.stage_ends[0] == 0:
        return None
    cfg = replace(cfg, aux_loss="none", lam=0.0, infonce_lam=0.0, tau=1.0)
    digest = hashlib.blake2b()
    for name, arr in init_values.items():
        arr = np.ascontiguousarray(arr)
        digest.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
        digest.update(arr)
    return agent_config, digest.digest(), cfg


def _checkpoint(agent_config, params, opt, rng, iteration):
    """A copy of the training state after `iteration` iterations."""
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        agent_config=agent_config,
        values={k: v.values.copy() for k, v in params.items()},
        adam_m={k: v.copy() for k, v in opt.m.items()},
        adam_v={k: v.copy() for k, v in opt.v.items()},
        adam_steps=dict(opt.steps),
        iteration=iteration,
        rng_state=rng.bit_generator.state,
    )


# glibc's mallopt parameters (malloc.h) and the size train gives both
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_KEEP_BYTES = 8 << 20


def _keep_freed_heap():
    """Have glibc's malloc keep up to 8 MiB of freed memory at the top of the
    heap, rather than hand it back to the kernel, and serve every allocation
    up to 8 MiB from the heap; returns whether both were set.

    Each training iteration frees its whole tape before the next forward.
    With glibc's default 128 KiB top pad the freed heap top goes back to the
    kernel and the next iteration faults it in again: about 620 minor page
    faults and 2 ms of system time per desk base iteration. 8 MiB is the
    smallest power of two that a desk finetune iteration needs: with 4 MiB
    a cosine iteration still faulted 181 times on average, with 8 MiB 39
    (median 2). Setting any of these parameters stops glibc adapting its
    mmap threshold to the sizes the process frees, and leaves it where the
    process's history had put it. With the pad alone, set before a fresh
    process's first finetune, arrays above that threshold were still mapped
    and faulted in every iteration (about 330 faults per iteration), so the
    threshold is fixed at the pad. The threshold, or the trim threshold,
    set without the pad faulted more than the default. Setting them again
    changes nothing. Without glibc's mallopt this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # no mallopt, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    set_pad = mallopt(_M_TOP_PAD, _HEAP_KEEP_BYTES)
    set_threshold = mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
    return set_pad == set_threshold == 1


def train(split, agent_config, cfg, init_values=None, resume=None):
    """Run the loop; returns (Checkpoint, curves).

    curves rows are (iteration, l_base, l_aux, n_im), n_im being the
    iteration's alignment-pair count (0 where the loss reads none).
    `init_values` warm-starts parameters (base checkpoint for finetunes);
    `resume` continues a saved checkpoint bitwise.

    A three-stage finetune from `init_values` keeps a copy of its state and
    curve rows at the end of stage 1. A later call whose stage 1 reads the
    same split object, agent config, init values and config (up to the
    alignment loss, which stage 1 does not run) resumes from that copy
    instead of recomputing stage 1; its results are the same bytes.
    """
    global _stage1
    if not split.items:
        raise ContractError("empty training split")
    _keep_freed_heap()
    key = None if resume is not None else _stage1_key(agent_config, cfg, init_values)
    params = ag.init_params(agent_config, cfg.seed)
    if init_values is not None:
        load_values(params, init_values)
    opt = nc.Adam(params)
    rng = np.random.default_rng(np.random.SeedSequence([0x7E41, cfg.seed]))
    curves = []
    if key is not None and _stage1 is not None and _stage1[0] is split and _stage1[1] == key:
        resume, curves = _stage1[2], list(_stage1[3])
    start_iter = 0
    if resume is not None:
        load_values(params, resume.values)
        for name in resume.adam_m:
            opt.m[name][...] = resume.adam_m[name]
            opt.v[name][...] = resume.adam_v[name]
        opt.steps.update(resume.adam_steps)
        rng.bit_generator.state = resume.rng_state
        start_iter = resume.iteration

    agent = ag.Agent(agent_config, params)
    items = split.items

    for iteration in range(start_iter, cfg.iterations):
        lrs = three_stage_schedule(iteration, cfg)
        batch_idx = rng.integers(len(items), size=cfg.batch_size)
        params.zero_grads()
        with _frozen_off_tape(params, lrs):
            breakdown = _train_step(agent, opt, items, batch_idx, lrs, cfg, iteration, rng)
        curves.append((iteration, breakdown.l_base, breakdown.l_aux, breakdown.n_im))
        if key is not None and iteration + 1 == cfg.stage_ends[0]:
            _stage1 = (split, key, _checkpoint(agent_config, params, opt, rng, iteration + 1),
                       tuple(curves))

    return _checkpoint(agent_config, params, opt, rng, cfg.iterations), curves


def agent_from_checkpoint(ckpt):
    """An agent for evaluation: the checkpoint's weights, all off the tape."""
    params = ag.init_params(ckpt.agent_config, seed=0)
    load_values(params, ckpt.values)
    for _, t in params.items():
        t.requires_grad = False
    return ag.Agent(ckpt.agent_config, params)


def load_values(params, values):
    """Write a checkpoint's arrays (name -> array) into `params`, the
    ParamStore of its agent config. FormatError names the array when a
    parameter has none, an array names no parameter, or the shapes differ."""
    for name in params.names():
        if name not in values:
            raise FormatError(f"checkpoint has no array for parameter {name!r}")
    for name, arr in values.items():
        if name not in params:
            raise FormatError(f"checkpoint array {name!r} is not a parameter of its agent config")
        if arr.shape != params[name].shape:
            raise FormatError(f"checkpoint array {name!r} has shape {arr.shape}, "
                              f"its agent config needs {params[name].shape}")
        params[name].values[...] = arr


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def _write_text(fh, text):
    raw = text.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _write_array(fh, name, arr):
    _write_text(fh, name)
    arr32 = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(struct.pack("<I", arr32.ndim))
    for dim in arr32.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr32.tobytes())


def save_checkpoint(ckpt, path):
    with serial.atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", ckpt.version))
        _write_text(fh, ckpt.agent_config.to_text())
        names = list(ckpt.values.keys())
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            _write_array(fh, name, ckpt.values[name])
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            _write_array(fh, "adam_m." + name, ckpt.adam_m[name])
            _write_array(fh, "adam_v." + name, ckpt.adam_v[name])
        _write_text(fh, json.dumps(ckpt.adam_steps, sort_keys=True))
        fh.write(struct.pack("<I", ckpt.iteration))
        _write_text(fh, json.dumps(ckpt.rng_state, sort_keys=True))


class _Reader:
    def __init__(self, fh):
        self.fh = fh

    def take(self, n):
        raw = self.fh.read(n)
        if len(raw) != n:
            raise FormatError("truncated checkpoint file")
        return raw

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def text(self):
        return self.take(self.u32()).decode("utf-8")

    def array(self):
        name = self.text()
        rank = self.u32()
        if rank > 8:
            raise FormatError(f"implausible array rank {rank}")
        shape = tuple(self.u32() for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, data.astype(np.float32)


def load_checkpoint(path):
    try:
        return _read_checkpoint(path)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint text: {exc}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_checkpoint(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        r = _Reader(fh)
        version = struct.unpack("<B", r.take(1))[0]
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        config = ag.AgentConfig.from_text(r.text())
        values = {}
        for _ in range(r.u32()):
            name, arr = r.array()
            values[name] = arr
        adam_m, adam_v = {}, {}
        for _ in range(r.u32()):
            name, arr = r.array()
            adam_m[name.removeprefix("adam_m.")] = arr
            name, arr = r.array()
            adam_v[name.removeprefix("adam_v.")] = arr
        steps = json.loads(r.text())
        iteration = r.u32()
        rng_state = json.loads(r.text())
        trailing = len(fh.read())
    if trailing:
        raise FormatError(f"{trailing} bytes follow the checkpoint's RNG state")
    return Checkpoint(version=version, agent_config=config, values=values,
                      adam_m=adam_m, adam_v=adam_v, adam_steps=steps,
                      iteration=iteration, rng_state=rng_state)
