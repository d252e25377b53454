"""Command-line front end and experiment orchestration.

Subcommands: data, train, eval, ablate, report. Exit codes: 0 ok,
1 runtime/I-O error, 2 usage. An empty path flag is exit 1 before any work.

Spec keys take their types and defaults from the fields of WorldConfig,
ImaginationConfig, AgentConfig, TrainConfig and ExperimentSpec. `data` writes
a spec's three splits into a directory; `train` and `eval` read a split from
it by name. `ablate` runs `data`, then each seed's `train` and `eval` steps
(`train_step`, `eval_step`) on those files.

Each condition is defined once: `training_job` gives the configs that train
it, `eval_policy` the policy it is evaluated under. All steps run in workers
spawned with one BLAS thread (`_pinned_pool`), so `train` and `eval` on an
ablation's data and seed compute what it computes, byte for byte. The
baseline trains from scratch, the other trained conditions finetune its
checkpoint, and null/wrong/goal-only evaluate imagine's checkpoint.
"""

from __future__ import annotations

import argparse
import configparser
import os
import shlex
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import agent as ag
from . import dataset as ds
from . import evaluation as ev
from . import imagination as im
from . import serial
from . import training as tr
from . import world as wd
from .dataset import DATA_DIR  # noqa: F401  (re-exported for perfbench/)
from .errors import ConfigurationError, FormatError, ImnavError, InputError, TrainingDiverged

TRAIN_CONDITIONS = {
    # condition -> (aux_loss, agent-config overrides)
    "imagine": ("cosine", {}),
    "no_aux": ("none", {}),
    "infonce": ("infonce", {}),
    "text_only": ("cosine", {"imag_source": "text_mean"}),
}
TEST_CONDITIONS = {"null_test": "null", "wrong_test": "wrong", "goal_only": "goal_only"}
ALL_CONDITIONS = ("baseline",) + tuple(TRAIN_CONDITIONS) + tuple(TEST_CONDITIONS)


@dataclass(frozen=True)
class ExperimentSpec:
    """An ablation matrix. `world` and `agent` hold WorldConfig and AgentConfig
    fields, which become configs once the library and vocabulary exist."""
    name: str = "experiment"
    seeds: tuple[int, ...] = (101, 102, 103, 104, 105)
    conditions: tuple[str, ...] = ("baseline", "imagine")
    data_seed: int = 0
    mode: str = wd.EPISODE_MODE     # the one episode mode; specs may still name it
    train_worlds: int = 500
    val_seen_worlds: int = 100
    val_unseen_worlds: int = 100
    base_iterations: int = 1400
    base_lr: float = tr.TrainConfig.flat_lr
    world: dict = field(default_factory=dict)
    agent: dict = field(default_factory=dict)
    imagination: im.ImaginationConfig = im.ImaginationConfig()
    train: tr.TrainConfig = tr.TrainConfig()

    def __post_init__(self):
        for name in ("seeds", "conditions"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"experiment lists no {name}")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigurationError(f"experiment lists {name} {repeated} more than once")
        for name, seeds in (("seeds", self.seeds), ("data_seed", (self.data_seed,))):
            if min(seeds) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {min(seeds)}")
        wd.check_mode(self.mode, "world.mode")
        if self.base_iterations < 0:
            raise ConfigurationError(f"base_iterations must be >= 0, got {self.base_iterations}")
        tr.check_number("base_lr", self.base_lr)
        for name in ("train_worlds", "val_seen_worlds", "val_unseen_worlds"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        wd.check_route_fits(self.world.get("n_forks", wd.WorldConfig.n_forks), ag.MAX_STEPS)
        ag.AgentConfig(vocab_size=1, **self.agent)  # AgentConfig's checks; any vocab_size will do
        unknown = [c for c in self.conditions if c not in ALL_CONDITIONS]
        if unknown:
            raise ConfigurationError(f"unknown conditions {unknown}; valid: {ALL_CONDITIONS}")
        # test-time conditions evaluate the imagine checkpoint, and imagine
        # finetunes from the baseline, so those are trained when needed
        needed = (("imagine", "baseline") if any(c in TEST_CONDITIONS for c in self.conditions)
                  else ("baseline",) if "imagine" in self.conditions else ())
        object.__setattr__(self, "conditions", tuple(
            c for c in needed if c not in self.conditions) + tuple(self.conditions))


def _keys(cls, names):
    return {name: (cls, name) for name in names.split()}


# spec section -> {key: (dataclass, field)}; a spec may set nothing else
SPEC_KEYS = {
    "experiment": _keys(ExperimentSpec, "name seeds conditions data_seed"),
    "world": {**_keys(wd.WorldConfig, "layout n_forks k_views sigma_obs"),
              **_keys(ag.AgentConfig, "d_v"),
              **_keys(ExperimentSpec, "mode train_worlds val_seen_worlds val_unseen_worlds"),
              **_keys(im.ImaginationConfig, "fidelity sigma_gen")},
    "agent": _keys(ag.AgentConfig, "d heads cross_layers"),
    "train": {**_keys(ExperimentSpec, "base_iterations base_lr"),
              **_keys(tr.TrainConfig, "iterations batch_size tau lr_multiplier "
                                      "stage_fractions aux_in_all_stages"),
              "lambda": (tr.TrainConfig, "lam"), "infonce_lambda": (tr.TrainConfig, "infonce_lam")},
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_data(args):
    spec = read_experiment_spec(args.spec)
    for name, (seg, kept, vsize) in write_data(spec, args.out, args.produced_by).items():
        print(f"wrote {getattr(spec, name + '_worlds')} {name} episodes to {args.out} "
              f"(avg segments {seg:.2f}, avg kept {kept:.2f}, vocab {vsize})")
    return 0


def _agent_config(split, spec):
    """The base agent of `spec` on `split`, with its vocabulary, k_views and d_v."""
    kw = dict(vocab_size=len(split.vocab))
    if split.items:
        kw["k_views"] = split.items[0].episode.world.k_views
    acfg = ag.AgentConfig(**kw, **spec.agent)
    if acfg.d_v != split.library.d_v:
        raise ConfigurationError(f"the spec has world.d_v = {acfg.d_v}, "
                                 f"but the data have d_v = {split.library.d_v}")
    return acfg


def training_job(spec, condition, seed, base_agent):
    """The (AgentConfig, TrainConfig) that train `condition` of `spec` at `seed`:
    `base_agent` is the baseline's agent, which the finetunes start from."""
    if condition == "baseline":
        return base_agent, tr.TrainConfig(
            iterations=spec.base_iterations, batch_size=spec.train.batch_size, schedule="flat",
            flat_lr=spec.base_lr, aux_loss="none", use_imaginations=False, seed=seed)
    aux, overrides = TRAIN_CONDITIONS[condition]
    return replace(base_agent, **overrides), replace(spec.train, aux_loss=aux, seed=seed)


def eval_policy(condition):
    """The test-time imagination policy that `condition` is evaluated under."""
    return "null" if condition == "baseline" else TEST_CONDITIONS.get(condition, "correct")


def train_step(spec, split, condition, seed, out, init_from=None, curves=None, command=""):
    """Train `condition` of `spec` at `seed` on `split` (a finetune from the checkpoint at
    `init_from`), writing the checkpoint to `out` and curve rows to `curves`; returns its cfg.
    A base checkpoint whose agent is not the spec's on `split` raises ConfigurationError."""
    base_agent, init_values = _agent_config(split, spec), None
    if init_from is not None:
        base = tr.load_checkpoint(init_from)
        differ = [f"{name} = {getattr(base.agent_config, name)} (spec: {value})"
                  for name, value in vars(base_agent).items()
                  if getattr(base.agent_config, name) != value]
        if differ:
            raise ConfigurationError(f"{init_from}: the base agent differs from the spec's on "
                                     f"this data: {', '.join(differ)}")
        init_values = base.values
    acfg, cfg = training_job(spec, condition, seed, base_agent)
    ckpt, rows = tr.train(split, acfg, cfg, init_values=init_values)
    tr.save_checkpoint(ckpt, out)
    if curves is not None:
        serial.write_curves(curves, rows, command=command, seed=seed)
    return cfg


def eval_step(ckpt_path, split, condition, seed):
    """The (MetricsRecord, condition) of checkpoint `ckpt_path` on `split` under `condition`'s policy."""
    agent = tr.agent_from_checkpoint(tr.load_checkpoint(ckpt_path))
    return ev.evaluate(agent, split.items, eval_policy(condition), seed=seed,
                       split=split.split), condition


def _train(args):
    spec = read_experiment_spec(args.spec)
    if (args.condition == "baseline") == (args.init_from is not None):
        raise ConfigurationError(f"{args.condition} {'takes no' if args.init_from else 'needs'} "
                                 "--init-from: a finetune starts from the baseline's checkpoint")
    cfg = train_step(spec, ds.read_split(args.data, "train"), args.condition, args.seed,
                     args.out, args.init_from, args.curves, args.produced_by)
    return f"trained {cfg.iterations} iterations, checkpoint at {args.out}"


def _eval(args):
    row = eval_step(args.ckpt, ds.read_split(args.data, args.split), args.condition, args.seed)
    ev.write_metrics(args.out, [row], command=args.produced_by, seed=args.seed)
    return ev.metrics_line(*row)


def _run_pinned(work, args):
    """Run `work(args)` in a pinned worker (see `_pinned_pool`) and print the
    text it returns: `train` on an ablation's data and seed then writes that
    ablation's checkpoint, whatever this process's BLAS thread count."""
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    with _pinned_pool(1) as pool:
        print(pool.submit(work, args).result())
    return 0


# ---------------------------------------------------------------------------
# ablation orchestration
# ---------------------------------------------------------------------------

def read_experiment_spec(path):
    """The ExperimentSpec of an INI spec file. An unknown key, or a value that
    does not parse as its field's type, raises ConfigurationError naming it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not found:
        raise FormatError(f"cannot read experiment spec {path}")
    values = {cls: {} for cls in (ExperimentSpec, wd.WorldConfig, ag.AgentConfig,
                                  im.ImaginationConfig, tr.TrainConfig)}
    for section in parser.sections():
        for key, text in parser.items(section):
            if key not in SPEC_KEYS.get(section, ()):
                raise ConfigurationError(f"{path}: unknown key {section}.{key}")
            cls, name = SPEC_KEYS[section][key]
            try:
                values[cls][name] = serial.parse_field(cls, name, text)
            except ValueError as exc:
                raise ConfigurationError(f"{path}: {section}.{key} = {text!r}: {exc}") from exc
    return ExperimentSpec(**values[ExperimentSpec], world=values[wd.WorldConfig],
                          agent=values[ag.AgentConfig],
                          imagination=im.ImaginationConfig(**values[im.ImaginationConfig]),
                          train=tr.TrainConfig(**values[tr.TrainConfig]))


HYPOTHESES = (  # (name, lhs, rhs, margin): PASS when lhs - rhs >= margin SR points
    ("imagine>baseline", "imagine", "baseline", 5.0),
    ("correct>null", "imagine", "null_test", 0.0),
    ("correct>wrong", "imagine", "wrong_test", 3.0),
    ("sequential>goal_only", "imagine", "goal_only", 2.0),
    ("goal_only>=baseline", "goal_only", "baseline", 0.0),
    ("cosine>=no_aux", "imagine", "no_aux", 0.0),
    ("infonce~cosine", "infonce", "imagine", None),  # None: PASS when |lhs - rhs| <= 2.0
    ("imagine>text_only", "imagine", "text_only", 5.0),
)


def build_spec_splits(spec):
    library, templates, lexicon = ds.load_assets(spec.agent.get("d_v", ag.AgentConfig.d_v))
    return ds.standard_splits(
        library, templates, lexicon, **spec.world, mode=spec.mode,
        train_n=spec.train_worlds, val_seen_n=spec.val_seen_worlds,
        val_unseen_n=spec.val_unseen_worlds, imagination_config=spec.imagination,
        data_seed=spec.data_seed)


def write_data(spec, out_dir, command):
    """Build the three splits of `spec`, then write them into `out_dir` (see
    `dataset.write_split`); returns {split: corpus statistics}. A spec that
    cannot build raises before `out_dir` is made."""
    splits = build_spec_splits(spec)
    return {name: ds.write_split(out_dir, split, command=command, seed=spec.data_seed)
            for name, split in splits.items()}


def _seed_job(spec, seed, out_dir, quiet):
    """The train steps of one seed's trained conditions, then the eval steps
    of all, on out_dir/data; runs in a worker of `run_ablation`. The finetunes
    share one train split object, so they compute their stage 1 once."""
    out_dir = Path(out_dir)
    splits = {name: ds.read_split(out_dir / "data", name) for name in wd.SPLITS}
    command, rows = f"ablate {spec.name}", []

    def ckpt(cond):
        return out_dir / "ckpt" / f"{cond}_{seed}.bin"

    def log(msg):
        if not quiet:
            print(f"[seed {seed}] {msg}", flush=True)

    serial.write_text(out_dir / "threads" / f"seed_{seed}.txt",
                      [f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_THREAD_VARS],
                      command=command, seed=seed)
    try:  # each loop sets `cond` before its steps run
        for cond in ("baseline",) + tuple(c for c in spec.conditions if c in TRAIN_CONDITIONS):
            log(f"training condition {cond}")
            train_step(spec, splits["train"], cond, seed, ckpt(cond),
                       init_from=None if cond == "baseline" else ckpt("baseline"),
                       curves=out_dir / "curves" / f"{cond}_{seed}.tsv", command=command)
        for cond in spec.conditions:
            for split_name in ("val_seen", "val_unseen"):
                rows.append(eval_step(ckpt("imagine" if cond in TEST_CONDITIONS else cond),
                                      splits[split_name], cond, seed))
                log(f"{cond:20s} {split_name:10s} SR {ev.percent(rows[-1][0].sr, '6.2f')} "
                    f"SPL {ev.percent(rows[-1][0].spl, '6.2f')}")
    except ImnavError as exc:
        message = f"condition {cond} failed at seed {seed}: {exc}"
        if isinstance(exc, TrainingDiverged):
            raise TrainingDiverged(message, dump=exc.dump) from exc
        raise ImnavError(message) from exc
    return rows


# the BLAS thread variables that seed workers run with at 1, and record
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 in this process's environment for
    the block, then restore them. BLAS reads them once, when numpy loads, so
    they pin the workers spawned inside the block and not this process."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextmanager
def _pinned_pool(workers):
    """A pool of up to `workers` processes, each spawned fresh with one BLAS
    thread. BLAS results depend on the thread count, and this process loaded
    numpy with its own, so work run in the pool gives the same bytes for any
    inherited thread setting. Workers forked from this process would also
    inherit one BLAS thread per core; two of them on two cores ran a base
    iteration 4-5 times slower than a pinned worker."""
    # imported here: they add 2 MB to every process that imports this module
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


def run_ablation(spec, out_dir, quiet=False, workers=1):
    """Write the data of `spec` into data/ (see `write_data`), run every seed
    in up to `workers` processes and write the metrics, summary and verdicts.
    Each seed reads its splits from data/ and runs the train and eval steps
    of `imnav train` and `imnav eval` on them (see `_seed_job`).

    Each seed runs in a `_pinned_pool` worker, which records its thread
    setting in threads/seed_<seed>.txt, so the output is the same bytes for
    any `workers` and any inherited thread setting."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    write_data(spec, out_dir / "data", command=f"ablate {spec.name}")

    rows = []
    with _pinned_pool(min(workers, len(spec.seeds))) as pool:
        futures = [pool.submit(_seed_job, spec, seed, str(out_dir), quiet) for seed in spec.seeds]
        for fut in futures:  # seed order keeps the output deterministic
            rows.extend(fut.result())

    ev.write_metrics(out_dir / "metrics.tsv", rows,
                     command=f"ablate {spec.name}", seed=spec.seeds[0])
    summary = summarize(rows)
    verdicts = verdict_lines(summary, spec.conditions)
    serial.write_text(out_dir / "summary.txt",
                      [format_summary(summary)] + ([""] + verdicts if verdicts else []))
    serial.write_text(out_dir / "verdicts.txt", verdicts)
    if not quiet:
        print(format_summary(summary))
        for line in verdicts:
            print(line)
    return rows, summary, verdicts


def summarize(rows):
    """Group (MetricsRecord, condition) rows by (split, condition): mean and
    sample stdev over seeds, and `sr_exact`, the mean SR as the exact
    fraction of each row's successes round(sr * count) over its count, which
    the verdicts compare. Two rows of one (split, condition, seed) raise
    InputError, since each seed counts once."""
    groups = {}
    for rec, cond in rows:
        members = groups.setdefault((rec.split, cond), [])
        if any(m.seed == rec.seed for m in members):
            raise InputError(f"two metrics rows for split {rec.split}, condition {cond}, "
                             f"seed {rec.seed}")
        members.append(rec)
    out = {}
    for key, members in sorted(groups.items()):
        srs = [m.sr for m in members]
        spls = [m.spl for m in members]
        out[key] = dict(
            n_rows=len(members),
            sr_mean=float(np.mean(srs)), sr_std=float(np.std(srs, ddof=1)) if len(srs) > 1 else 0.0,
            sr_exact=sum(Fraction(round(m.sr * m.count), m.count) for m in members) / len(members),
            spl_mean=float(np.mean(spls)), spl_std=float(np.std(spls, ddof=1)) if len(spls) > 1 else 0.0,
            ne_mean=float(np.mean([m.ne_mean for m in members])),
            tl_mean=float(np.mean([m.tl_mean for m in members])))
    return out


def format_summary(summary):
    lines = ["split        condition             SR%             SPL%            NE      TL      runs"]
    for (split, cond), s in summary.items():
        lines.append(f"{split:12s} {cond:20s} {ev.percent(s['sr_mean'], '6.2f')} ± "
                     f"{ev.percent(s['sr_std'], '5.2f')} {ev.percent(s['spl_mean'], '6.2f')} ± "
                     f"{ev.percent(s['spl_std'], '5.2f')} "
                     f"{s['ne_mean']:7.3f} {s['tl_mean']:7.3f} {s['n_rows']:4d}")
    return "\n".join(lines)


def verdict_lines(summary, conditions):
    """One PASS/FAIL line per hypothesis whose two conditions ran on
    val_unseen. The verdict compares the exact Δ of the `sr_exact` means
    with the margin, so a Δ at exactly its margin passes; the line prints
    the float Δ."""
    lines = []
    for name, lhs, rhs, margin in HYPOTHESES:
        a, b = summary.get(("val_unseen", lhs)), summary.get(("val_unseen", rhs))
        if lhs not in conditions or rhs not in conditions or a is None or b is None:
            continue
        delta = 100 * (a["sr_exact"] - b["sr_exact"])
        ok = abs(delta) <= 2 if margin is None else delta >= Fraction(margin)
        lines.append(f"hypothesis {name}: {'PASS' if ok else 'FAIL'} "
                     f"(Δ={ev.percent(a['sr_mean'] - b['sr_mean'], '+.1f')} SR)")
    return lines


def cmd_ablate(args):
    spec = read_experiment_spec(args.spec)
    run_ablation(spec, args.out_dir, quiet=args.quiet, workers=args.workers)
    return 0


def cmd_report(args):
    rows = []
    for path in args.metrics:
        file_rows = ev.read_metrics(path)
        if not file_rows:
            raise FormatError(f"{path}: holds a header and no metrics rows")
        for row in file_rows:
            if row[1] not in ALL_CONDITIONS:
                raise FormatError(f"{path}: unknown condition {row[1]!r}; the conditions are "
                                  f"{', '.join(ALL_CONDITIONS)}")
            rows.append(row)
    summary = summarize(rows)
    tsv = ["split\tcondition\tsr_mean\tsr_std\tspl_mean\tspl_std\tne_mean\ttl_mean\truns"]
    for (split, cond), s in summary.items():
        tsv.append("\t".join([split, cond, *(ev.percent(s[k]) for k in
                                             ("sr_mean", "sr_std", "spl_mean", "spl_std")),
                              f"{s['ne_mean']:.4f}", f"{s['tl_mean']:.4f}", str(s["n_rows"])]))
    serial.write_text(args.out, tsv, command=args.produced_by)
    print(format_summary(summary))
    print(f"merged {len(rows)} rows into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the flags that name a file or directory, by their argparse dest
PATH_FLAGS = ("spec", "data", "init_from", "curves", "ckpt", "out", "out_dir")


def build_parser():
    parser = argparse.ArgumentParser(prog="imnav",
                                     description="Landmark-imagination navigation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("data", help="write the train, val_seen and val_unseen splits of a spec")
    p.add_argument("--spec", required=True, help="experiment spec; its [experiment] and [world] apply")
    p.add_argument("--out", required=True, help="the data directory")
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("train", help="train one condition of a spec, as an ablation seed does")
    p.add_argument("--spec", required=True, help="experiment spec; its [agent] and [train] apply")
    p.add_argument("--condition", required=True, choices=("baseline",) + tuple(TRAIN_CONDITIONS))
    p.add_argument("--data", required=True, help="a data directory; its train split is read")
    p.add_argument("--init-from", default=None, help="the baseline checkpoint a finetune starts from")
    p.add_argument("--curves", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=partial(_run_pinned, _train))

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split under a condition's policy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--condition", required=True, choices=ALL_CONDITIONS)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, choices=wd.SPLITS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=partial(_run_pinned, _eval))

    p = sub.add_parser("ablate", help="run an ablation matrix from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="seeds trained in parallel processes, each with one BLAS thread")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="merge metrics files into a summary")
    p.add_argument("metrics", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    for p in sub.choices.values():   # a removed flag must fail, not abbreviate a kept one
        p.allow_abbrev = False
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.produced_by = "imnav " + shlex.join(argv)  # the files' `# produced-by:` header
    for dest in PATH_FLAGS:   # "" would name the current directory, or no file at all
        if getattr(args, dest, None) == "":
            print(f"error: --{dest.replace('_', '-')} is an empty path", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # any other file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ImnavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TrainingDiverged):
            print(exc.dump, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
