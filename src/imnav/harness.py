"""Command-line front end and experiment orchestration.

Subcommands: gen-world, gen-corpus, imagine, train, eval, ablate,
probe-attention, report. Exit codes: 0 ok, 1 runtime/I-O error, 2 usage.

Ablations reuse checkpoints the way the test-time conditions require: the
baseline is the trained base agent; imagine finetunes from it; null/wrong/
goal-only evaluate the imagine checkpoint under the matching policy; the
remaining conditions are separate finetunes from the same base.
"""

from __future__ import annotations

import argparse
import configparser
import math
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import agent as ag
from . import dataset as ds
from . import evaluation as ev
from . import imagination as im
from . import instructions as ins
from . import serial
from . import training as tr
from . import world as wd
from .errors import ConfigurationError, FormatError, ImnavError

DATA_DIR = Path(__file__).parent / "data"

TRAIN_CONDITIONS = {
    # condition -> (aux_loss, agent-config overrides)
    "imagine": ("cosine", {}),
    "no_aux": ("none", {}),
    "infonce": ("infonce", {}),
    "text_only": ("cosine", {"imag_source": "text_mean"}),
    "transformer_encoder": ("cosine", {"imagination_encoder": "transformer"}),
    "visual_concat": ("cosine", {"concat_target": "visual"}),
    "late_fusion": ("cosine", {"fusion": "late"}),
}
TEST_CONDITIONS = {"null_test": "null", "wrong_test": "wrong", "goal_only": "goal_only"}
ALL_CONDITIONS = ("baseline",) + tuple(TRAIN_CONDITIONS) + tuple(TEST_CONDITIONS)


def command_line():
    return "imnav " + " ".join(shlex.quote(a) for a in sys.argv[1:])


def load_assets(args):
    library = wd.load_library(getattr(args, "library", None) or DATA_DIR / "landmarks.txt",
                              d_v=getattr(args, "d_v", ag.AgentConfig.d_v))
    templates = ins.load_templates(getattr(args, "templates", None) or DATA_DIR / "templates.txt")
    lexicon = ins.load_lexicon(
        getattr(args, "lexicon_nouns", None) or DATA_DIR / "lexicon_nouns.txt",
        getattr(args, "lexicon_blacklist", None) or DATA_DIR / "lexicon_blacklist.txt",
        library)
    return library, templates, lexicon


def items_from_files(worlds_path, corpus_path, imaginations_path, templates=None):
    library, pairs = serial.read_worlds(worlds_path)
    records, world_indices = serial.read_corpus(corpus_path, pairs)
    sets = serial.read_imaginations(imaginations_path, len(records), library.d_v)
    templates = templates or ins.load_templates(DATA_DIR / "templates.txt")
    vocab = ins.build_vocab(templates, library)
    word_to_id = {w: i for i, w in enumerate(vocab)}
    items = []
    for rec, w_idx, imags in zip(records, world_indices, sets):
        episode = pairs[w_idx][1]
        ids = tuple(word_to_id[t] for t in rec.instruction.tokens)
        items.append(ds.EpisodeBundle(episode=episode, record=rec, imaginations=imags,
                                      token_ids=ids))
    split_name = pairs[0][0].split if pairs else "train"
    return ds.Split(items=items, vocab=vocab, library=library, split=split_name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_world(args):
    library, _, _ = load_assets(args)
    cfg = wd.WorldConfig(library=library, layout=args.layout, n_nodes=args.n_nodes,
                         k_views=args.k, sigma_obs=args.sigma_obs, split=args.split,
                         n_forks=args.n_forks)
    pairs = []
    for i in range(args.count):
        world = wd.generate_world(cfg, seed=args.seed * 1009 + i)
        episode = wd.sample_episode(world, args.mode, seed=args.seed * 31 + i)
        pairs.append((world, episode))
    serial.write_worlds(args.out, library, pairs, command=command_line(), seed=args.seed)
    print(f"wrote {len(pairs)} worlds to {args.out}")
    return 0


def cmd_gen_corpus(args):
    _, pairs = serial.read_worlds(args.worlds)
    library = pairs[0][0].library
    templates = ins.load_templates(args.templates or DATA_DIR / "templates.txt")
    lexicon = ins.load_lexicon(args.lexicon_nouns or DATA_DIR / "lexicon_nouns.txt",
                               args.lexicon_blacklist or DATA_DIR / "lexicon_blacklist.txt",
                               library)
    vocab = ins.build_vocab(templates, library)
    episodes = [ep for _, ep in pairs]
    records = ins.build_corpus(episodes, templates, lexicon, seed=args.seed, vocab=vocab)
    serial.write_corpus(args.out, records, list(range(len(records))),
                        command=command_line(), seed=args.seed)
    seg, kept, vsize = ins.corpus_stats(records)
    print(f"wrote {len(records)} instructions to {args.out} "
          f"(avg segments {seg:.2f}, avg kept {kept:.2f}, vocab {vsize})")
    return 0


def cmd_imagine(args):
    library, pairs = serial.read_worlds(args.worlds)
    records, _ = serial.read_corpus(args.corpus, pairs)
    cfg = im.ImaginationConfig(sigma_gen=args.sigma_gen, fidelity=args.fidelity)
    sets = im.imagine_dataset(records, library, cfg, seed=args.seed)
    serial.write_imaginations(args.out, sets, command=command_line(), seed=args.seed)
    total = sum(len(g) for g in sets)
    print(f"wrote {total} imaginations for {len(sets)} instructions to {args.out}")
    return 0


def _agent_config(split, args=None, overrides=None):
    """Agent config whose vocabulary, d_v and k_views are those of `split`."""
    kw = dict(vocab_size=len(split.vocab), d_v=split.library.d_v)
    if split.items:
        kw["k_views"] = split.items[0].episode.world.k_views
    if args is not None:
        kw.update(d=args.d, heads=args.heads, cross_layers=args.cross_layers)
    if overrides:
        kw.update(overrides)
    return ag.AgentConfig(**kw)


def cmd_train(args):
    split = items_from_files(args.worlds, args.corpus, args.imaginations)
    acfg = _agent_config(split, args)
    init_values = None
    if args.init_from:
        base = tr.load_checkpoint(args.init_from)
        acfg = replace(base.agent_config, **{k: getattr(acfg, k)
                                             for k in ("vocab_size",)})
        if args.condition in TRAIN_CONDITIONS:
            acfg = replace(acfg, **TRAIN_CONDITIONS[args.condition][1])
        init_values = base.values
    cfg = tr.TrainConfig(
        iterations=args.iters, batch_size=args.batch_size,
        aux_loss=args.aux, schedule=args.schedule, flat_lr=args.flat_lr,
        lam=args.lam, infonce_lam=args.infonce_lam, tau=args.tau,
        lr_multiplier=args.lr_multiplier,
        stage_fractions=tuple(args.stage_fractions),
        use_imaginations=not args.no_imaginations,
        eval_interval=args.eval_interval, seed=args.seed)
    val_items = None
    if args.val_worlds:
        val_items = items_from_files(args.val_worlds, args.val_corpus, args.val_imaginations).items
    ckpt, curves = tr.train(split, acfg, cfg, init_values=init_values, val_items=val_items)
    tr.save_checkpoint(ckpt, args.out)
    if args.curves:
        serial.write_curves(args.curves, curves, command=command_line(), seed=args.seed)
    print(f"trained {cfg.iterations} iterations, checkpoint at {args.out}")
    return 0


def cmd_eval(args):
    split = items_from_files(args.worlds, args.corpus, args.imaginations)
    ckpt = tr.load_checkpoint(args.ckpt)
    agent = tr.agent_from_checkpoint(ckpt)
    rec = ev.evaluate(agent, split.items, args.policy, seed=args.seed, split=split.split)
    serial.write_metrics(args.out, [(rec, args.condition or args.policy)],
                         command=command_line(), seed=args.seed)
    print(rec.as_row())
    return 0


def cmd_probe_attention(args):
    split = items_from_files(args.worlds, args.corpus, args.imaginations)
    ckpt = tr.load_checkpoint(args.ckpt)
    agent = tr.agent_from_checkpoint(ckpt)
    item = split.items[args.episode]
    import imnav.numcore as nc
    with nc.no_grad():
        traj = ag.rollout(agent, item.episode, item.token_ids, item.record.instruction.tokens,
                          item.imaginations, "teacher",
                          obs_rng=np.random.default_rng(np.random.SeedSequence([0xE7A1, args.seed, args.episode])),
                          kept_subs=item.record.kept, record_attention=True)
    tokens, views = ag.attention_probe(traj, args.layer, args.head, args.imagination, k=args.k)
    print(f"episode {args.episode}, imagination {args.imagination} "
          f"(class {traj.imaginations[args.imagination].true_class}), "
          f"layer {args.layer}, head {args.head}")
    print("top attended language tokens: " + ", ".join(f"{t} ({w:.3f})" for t, w in tokens))
    print("top attended views:           " + ", ".join(f"{v} ({w:.3f})" for v, w in views))
    return 0


# ---------------------------------------------------------------------------
# ablation orchestration
# ---------------------------------------------------------------------------

def read_experiment_spec(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise FormatError(f"cannot read experiment spec {path}")
    exp = parser["experiment"]
    spec = dict(
        name=exp.get("name", "experiment"),
        seeds=[int(s) for s in exp.get("seeds", "101 102 103 104 105").split()],
        conditions=exp.get("conditions", "baseline imagine").split(),
        data_seed=exp.getint("data_seed", 0),
    )
    if not spec["seeds"]:
        raise ConfigurationError("experiment needs at least one seed")
    unknown = [c for c in spec["conditions"] if c not in ALL_CONDITIONS]
    if unknown:
        raise ConfigurationError(f"unknown conditions {unknown}; valid: {ALL_CONDITIONS}")
    # test-time conditions evaluate the imagine checkpoint, so imagine (and the
    # baseline it finetunes from) must be trained whenever any *_test is listed
    if any(c in TEST_CONDITIONS for c in spec["conditions"]):
        for required in ("baseline", "imagine"):
            if required not in spec["conditions"]:
                spec["conditions"].insert(0, required)
    if "imagine" in spec["conditions"] and "baseline" not in spec["conditions"]:
        spec["conditions"].insert(0, "baseline")

    w = parser["world"] if parser.has_section("world") else {}
    wc, ic = wd.WorldConfig, im.ImaginationConfig
    spec["world"] = dict(
        layout=w.get("layout", wc.layout), n_forks=int(w.get("n_forks", wc.n_forks)),
        k_views=int(w.get("k_views", wc.k_views)), d_v=int(w.get("d_v", ag.AgentConfig.d_v)),
        sigma_obs=float(w.get("sigma_obs", wc.sigma_obs)), mode=w.get("mode", "fine"),
        train_worlds=int(w.get("train_worlds", 500)),
        val_seen_worlds=int(w.get("val_seen_worlds", 100)),
        val_unseen_worlds=int(w.get("val_unseen_worlds", 100)),
        fidelity=float(w.get("fidelity", ic.fidelity)),
        sigma_gen=float(w.get("sigma_gen", ic.sigma_gen)))
    a = parser["agent"] if parser.has_section("agent") else {}
    spec["agent"] = dict(d=int(a.get("d", 64)), heads=int(a.get("heads", 4)),
                         cross_layers=int(a.get("cross_layers", 2)))
    t = parser["train"] if parser.has_section("train") else {}
    spec["train"] = dict(
        base_iterations=int(t.get("base_iterations", 1400)),
        base_lr=float(t.get("base_lr", 1e-3)),
        iterations=int(t.get("iterations", 2000)),
        batch_size=int(t.get("batch_size", 8)),
        lam=float(t.get("lambda", 0.5)),
        infonce_lam=float(t.get("infonce_lambda", 0.2)),
        tau=float(t.get("tau", 0.1)),
        lr_multiplier=float(t.get("lr_multiplier", 10.0)),
        stage_fractions=tuple(float(x) for x in t.get("stage_fractions", "0.4 0.25 0.35").split()),
        aux_in_all_stages=t.get("aux_in_all_stages", "false").lower() == "true")
    return spec


HYPOTHESES = (
    ("imagine>baseline", "imagine", "baseline", 5.0),
    ("correct>null", "imagine", "null_test", 0.0),
    ("correct>wrong", "imagine", "wrong_test", 3.0),
    ("sequential>goal_only", "imagine", "goal_only", 2.0),
    ("goal_only>=baseline", "goal_only", "baseline", 0.0),
    ("cosine>=no_aux", "imagine", "no_aux", 0.0),
)


def build_spec_splits(spec):
    library = wd.load_library(DATA_DIR / "landmarks.txt", d_v=spec["world"]["d_v"])
    templates = ins.load_templates(DATA_DIR / "templates.txt")
    lexicon = ins.load_lexicon(DATA_DIR / "lexicon_nouns.txt",
                               DATA_DIR / "lexicon_blacklist.txt", library)
    w = spec["world"]
    return ds.standard_splits(
        library, templates, lexicon, layout=w["layout"], n_forks=w["n_forks"],
        k_views=w["k_views"], sigma_obs=w["sigma_obs"], mode=w["mode"],
        train_n=w["train_worlds"], val_seen_n=w["val_seen_worlds"],
        val_unseen_n=w["val_unseen_worlds"],
        imagination_config=im.ImaginationConfig(sigma_gen=w["sigma_gen"], fidelity=w["fidelity"]),
        data_seed=spec["data_seed"])


def _seed_job(spec, seed, out_dir, quiet):
    """Train the base agent plus every finetune condition for one seed and
    evaluate all conditions; runs in its own process when parallelized."""
    out_dir = Path(out_dir)
    splits = build_spec_splits(spec)
    t = spec["train"]
    rows = []
    checkpoints = {}

    def log(msg):
        if not quiet:
            print(f"[seed {seed}] {msg}", flush=True)

    acfg = _agent_config(splits["train"], overrides=spec["agent"])
    base_cfg = tr.TrainConfig(
        iterations=t["base_iterations"], batch_size=t["batch_size"],
        schedule="flat", flat_lr=t["base_lr"], aux_loss="none",
        use_imaginations=False, seed=seed)
    log(f"training base agent ({base_cfg.iterations} iterations)")
    try:
        base_ckpt, base_curves = tr.train(splits["train"], acfg, base_cfg)
    except ImnavError as exc:
        raise ImnavError(f"condition baseline failed at seed {seed}: {exc}") from exc
    checkpoints["baseline"] = base_ckpt
    tr.save_checkpoint(base_ckpt, out_dir / "ckpt" / f"baseline_{seed}.bin")
    serial.write_curves(out_dir / "curves" / f"baseline_{seed}.tsv", base_curves,
                        command=f"ablate {spec['name']}", seed=seed)

    for cond in spec["conditions"]:
        if cond == "baseline" or cond in TEST_CONDITIONS:
            continue
        aux, overrides = TRAIN_CONDITIONS[cond]
        f_acfg = replace(acfg, **overrides)
        f_cfg = tr.TrainConfig(
            iterations=t["iterations"], batch_size=t["batch_size"],
            aux_loss=aux, lam=t["lam"], infonce_lam=t["infonce_lam"], tau=t["tau"],
            lr_multiplier=t["lr_multiplier"], stage_fractions=t["stage_fractions"],
            aux_in_all_stages=t["aux_in_all_stages"], seed=seed)
        log(f"finetuning condition {cond} ({f_cfg.iterations} iterations)")
        try:
            ckpt, curves = tr.train(splits["train"], f_acfg, f_cfg,
                                    init_values=base_ckpt.values)
        except ImnavError as exc:
            raise ImnavError(f"condition {cond} failed at seed {seed}: {exc}") from exc
        checkpoints[cond] = ckpt
        tr.save_checkpoint(ckpt, out_dir / "ckpt" / f"{cond}_{seed}.bin")
        serial.write_curves(out_dir / "curves" / f"{cond}_{seed}.tsv", curves,
                            command=f"ablate {spec['name']}", seed=seed)

    for cond in spec["conditions"]:
        if cond in TEST_CONDITIONS:
            ckpt, policy = checkpoints["imagine"], TEST_CONDITIONS[cond]
        elif cond == "baseline":
            ckpt, policy = checkpoints["baseline"], "null"
        else:
            ckpt, policy = checkpoints[cond], "correct"
        agent = tr.agent_from_checkpoint(ckpt)
        for split_name in ("val_seen", "val_unseen"):
            try:
                rec = ev.evaluate(agent, splits[split_name].items, policy,
                                  seed=seed, split=split_name)
            except ImnavError as exc:
                raise ImnavError(f"condition {cond} failed at seed {seed}: {exc}") from exc
            rows.append((rec, cond))
            log(f"{cond:20s} {split_name:10s} SR {rec.sr * 100:6.2f} SPL {rec.spl * 100:6.2f}")
    return rows


def run_ablation(spec, out_dir, quiet=False, workers=1):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "curves").mkdir(exist_ok=True)
    (out_dir / "ckpt").mkdir(exist_ok=True)

    rows = []
    if workers > 1 and len(spec["seeds"]) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_seed_job, spec, seed, str(out_dir), quiet)
                       for seed in spec["seeds"]]
            for fut in futures:  # seed order keeps the output deterministic
                rows.extend(fut.result())
    else:
        for seed in spec["seeds"]:
            rows.extend(_seed_job(spec, seed, str(out_dir), quiet))

    serial.write_metrics(out_dir / "metrics.tsv", rows,
                         command=f"ablate {spec['name']}", seed=spec["seeds"][0])
    summary = summarize([dict(split=r.split, condition=c, sr=r.sr, spl=r.spl, ne=r.ne_mean,
                              tl=r.tl_mean, rgs=r.rgs, rgspl=r.rgspl, n=r.count, seed=r.seed)
                         for r, c in rows])
    verdicts = verdict_lines(summary, spec["conditions"])
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(format_summary(summary) + "\n")
        if verdicts:
            fh.write("\n" + "\n".join(verdicts) + "\n")
    with open(out_dir / "verdicts.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(verdicts) + ("\n" if verdicts else ""))
    if not quiet:
        print(format_summary(summary))
        for line in verdicts:
            print(line)
    return rows, summary, verdicts


def summarize(rows):
    """Group rows by (split, condition): mean and sample stdev over seeds."""
    groups = {}
    for row in rows:
        groups.setdefault((row["split"], row["condition"]), []).append(row)
    out = {}
    for key, members in sorted(groups.items()):
        srs = [m["sr"] for m in members]
        spls = [m["spl"] for m in members]
        out[key] = dict(
            n_rows=len(members),
            sr_mean=float(np.mean(srs)), sr_std=float(np.std(srs, ddof=1)) if len(srs) > 1 else 0.0,
            spl_mean=float(np.mean(spls)), spl_std=float(np.std(spls, ddof=1)) if len(spls) > 1 else 0.0,
            ne_mean=float(np.mean([m["ne"] for m in members])),
            tl_mean=float(np.mean([m["tl"] for m in members])))
    return out


def format_summary(summary):
    lines = ["split        condition             SR%             SPL%            NE      TL      runs"]
    for (split, cond), s in summary.items():
        lines.append(f"{split:12s} {cond:20s} {100 * s['sr_mean']:6.2f} ± {100 * s['sr_std']:5.2f} "
                     f"{100 * s['spl_mean']:6.2f} ± {100 * s['spl_std']:5.2f} "
                     f"{s['ne_mean']:7.3f} {s['tl_mean']:7.3f} {s['n_rows']:4d}")
    return "\n".join(lines)


def verdict_lines(summary, conditions, split="val_unseen"):
    lines = []
    for name, lhs, rhs, margin in HYPOTHESES:
        if lhs not in conditions or rhs not in conditions:
            continue
        a = summary.get((split, lhs))
        b = summary.get((split, rhs))
        if a is None or b is None:
            continue
        delta = 100 * (a["sr_mean"] - b["sr_mean"])
        status = "PASS" if delta >= margin else "FAIL"
        lines.append(f"hypothesis {name}: {status} (Δ={delta:+.1f} SR)")
    if "infonce" in conditions and "imagine" in conditions:
        a = summary.get((split, "infonce"))
        b = summary.get((split, "imagine"))
        if a and b:
            delta = 100 * (a["sr_mean"] - b["sr_mean"])
            status = "PASS" if abs(delta) <= 2.0 else "FAIL"
            lines.append(f"hypothesis infonce~cosine: {status} (Δ={delta:+.1f} SR)")
    return lines


def cmd_ablate(args):
    spec = read_experiment_spec(args.spec)
    run_ablation(spec, args.out_dir, quiet=args.quiet, workers=args.workers)
    return 0


def cmd_report(args):
    rows = []
    for path in args.metrics:
        rows.extend(serial.read_metrics(path))
    for row in rows:   # metrics.tsv stores percentages; summarize takes fractions
        row["sr"] /= 100.0
        row["spl"] /= 100.0
    summary = summarize(rows)
    text = format_summary(summary)
    tsv = ["split\tcondition\tsr_mean\tsr_std\tspl_mean\tspl_std\tne_mean\ttl_mean\truns"]
    for (split, cond), s in summary.items():
        tsv.append(f"{split}\t{cond}\t{100 * s['sr_mean']:.2f}\t{100 * s['sr_std']:.2f}"
                   f"\t{100 * s['spl_mean']:.2f}\t{100 * s['spl_std']:.2f}"
                   f"\t{s['ne_mean']:.4f}\t{s['tl_mean']:.4f}\t{s['n_rows']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# produced-by: {command_line()}\n")
        fh.write("\n".join(tsv) + "\n")
    print(text)
    print(f"merged {len(rows)} rows into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="imnav",
                                     description="Landmark-imagination navigation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="generate a world + episode set")
    p.add_argument("--layout", default=wd.WorldConfig.layout, choices=("forks", "ring", "random"))
    p.add_argument("--split", default="train", choices=wd.SPLITS)
    p.add_argument("--mode", default="fine", choices=("fine", "coarse"))
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-nodes", type=int, default=wd.WorldConfig.n_nodes)
    p.add_argument("--n-forks", type=int, default=wd.WorldConfig.n_forks)
    p.add_argument("--k", type=int, default=wd.WorldConfig.k_views)
    p.add_argument("--d-v", type=int, default=ag.AgentConfig.d_v)
    p.add_argument("--sigma-obs", type=float, default=wd.WorldConfig.sigma_obs)
    p.add_argument("--library", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("gen-corpus", help="generate instructions for a world set")
    p.add_argument("--worlds", required=True)
    p.add_argument("--templates", default=None)
    p.add_argument("--lexicon-nouns", default=None)
    p.add_argument("--lexicon-blacklist", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("imagine", help="generate imaginations for a corpus")
    p.add_argument("--worlds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--fidelity", type=float, default=im.ImaginationConfig.fidelity)
    p.add_argument("--sigma-gen", type=float, default=im.ImaginationConfig.sigma_gen)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_imagine)

    p = sub.add_parser("train", help="train or finetune an agent")
    p.add_argument("--worlds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--imaginations", required=True)
    p.add_argument("--val-worlds", default=None)
    p.add_argument("--val-corpus", default=None)
    p.add_argument("--val-imaginations", default=None)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--schedule", default="three_stage", choices=("three_stage", "flat"))
    p.add_argument("--flat-lr", type=float, default=1e-3)
    p.add_argument("--aux", default="cosine", choices=("cosine", "infonce", "none"))
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--infonce-lam", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--lr-multiplier", type=float, default=10.0)
    p.add_argument("--stage-fractions", type=float, nargs=3, default=[0.4, 0.25, 0.35])
    p.add_argument("--no-imaginations", action="store_true")
    p.add_argument("--init-from", default=None)
    p.add_argument("--condition", default=None, choices=tuple(TRAIN_CONDITIONS))
    p.add_argument("--eval-interval", type=int, default=0)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--cross-layers", type=int, default=2)
    p.add_argument("--curves", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--worlds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--imaginations", required=True)
    p.add_argument("--policy", default="correct", choices=ev.POLICIES)
    p.add_argument("--condition", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation matrix from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="seeds trained in parallel processes")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("probe-attention", help="top attended tokens/views for an imagination")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--worlds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--imaginations", required=True)
    p.add_argument("--episode", type=int, default=0)
    p.add_argument("--imagination", type=int, default=0)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe_attention)

    p = sub.add_parser("report", help="merge metrics files into a summary")
    p.add_argument("metrics", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return 1
    except ImnavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
