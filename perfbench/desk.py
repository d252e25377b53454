"""Workload inputs built from `experiments/desk.cfg` through the library's
public calls.

Every world value of the spec is passed to `dataset.standard_splits`
explicitly, because its defaults differ from the spec (`sigma_obs` defaults
to 0.05 there and to 0.12 in desk.cfg). `AgentConfig.d_v` and `k_views` are
taken from the built library and worlds, not from `AgentConfig`'s defaults
(16, which does not match the spec's 24). What was built is asserted.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "experiments" / "desk.cfg"
if not (ROOT / "src" / "imnav" / "__init__.py").is_file():
    raise ImportError(f"no imnav source tree under {ROOT / 'src'}: run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

from imnav import agent as ag  # noqa: E402
from imnav import dataset as ds  # noqa: E402
from imnav import imagination as im  # noqa: E402
from imnav import instructions as ins  # noqa: E402
from imnav import training as tr  # noqa: E402
from imnav import world as wd  # noqa: E402
from imnav.harness import DATA_DIR  # noqa: E402

SPLIT_COUNTS = (("train", "train_worlds"), ("val_seen", "val_seen_worlds"),
                ("val_unseen", "val_unseen_worlds"))


def read_spec(path=SPEC_PATH):
    """The desk spec as plain dicts. Every key the benchmark uses must be
    present in the file: a missing key raises KeyError instead of falling
    back to a default."""
    p = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not p.read(path):
        raise FileNotFoundError(f"cannot read experiment spec {path}")
    e, w, a, t = p["experiment"], p["world"], p["agent"], p["train"]
    return dict(
        data_seed=int(e["data_seed"]),
        seeds=[int(s) for s in e["seeds"].split()],
        world=dict(layout=w["layout"], n_forks=int(w["n_forks"]), k_views=int(w["k_views"]),
                   d_v=int(w["d_v"]), sigma_obs=float(w["sigma_obs"]), mode=w["mode"],
                   train_worlds=int(w["train_worlds"]),
                   val_seen_worlds=int(w["val_seen_worlds"]),
                   val_unseen_worlds=int(w["val_unseen_worlds"]),
                   fidelity=float(w["fidelity"]), sigma_gen=float(w["sigma_gen"])),
        agent=dict(d=int(a["d"]), heads=int(a["heads"]), cross_layers=int(a["cross_layers"])),
        train=dict(base_iterations=int(t["base_iterations"]), base_lr=float(t["base_lr"]),
                   iterations=int(t["iterations"]), batch_size=int(t["batch_size"]),
                   lam=float(t["lambda"]), infonce_lam=float(t["infonce_lambda"]),
                   tau=float(t["tau"]), lr_multiplier=float(t["lr_multiplier"]),
                   stage_fractions=tuple(float(x) for x in t["stage_fractions"].split()),
                   aux_in_all_stages=t["aux_in_all_stages"].strip().lower() == "true"),
    )


def with_world_counts(spec, train, val_seen, val_unseen):
    """A copy of `spec` with other split sizes (the self-test runs tiny ones)."""
    world = dict(spec["world"], train_worlds=train, val_seen_worlds=val_seen,
                 val_unseen_worlds=val_unseen)
    return dict(spec, world=world)


def build_splits(spec):
    """Build the train/val_seen/val_unseen splits and check what was built."""
    w = spec["world"]
    library = wd.load_library(DATA_DIR / "landmarks.txt", d_v=w["d_v"])
    templates = ins.load_templates(DATA_DIR / "templates.txt")
    lexicon = ins.load_lexicon(DATA_DIR / "lexicon_nouns.txt",
                               DATA_DIR / "lexicon_blacklist.txt", library)
    splits = ds.standard_splits(
        library, templates, lexicon, layout=w["layout"], n_forks=w["n_forks"],
        k_views=w["k_views"], sigma_obs=w["sigma_obs"], mode=w["mode"],
        train_n=w["train_worlds"], val_seen_n=w["val_seen_worlds"],
        val_unseen_n=w["val_unseen_worlds"],
        imagination_config=im.ImaginationConfig(sigma_gen=w["sigma_gen"],
                                                fidelity=w["fidelity"]),
        data_seed=spec["data_seed"])
    check_splits(splits, spec)
    return splits


def check_splits(splits, spec):
    w = spec["world"]
    for name, count_key in SPLIT_COUNTS:
        split = splits[name]
        if len(split.items) != w[count_key]:
            raise AssertionError(f"{name}: {len(split.items)} episodes, spec says {w[count_key]}")
        if split.library.d_v != w["d_v"]:
            raise AssertionError(f"{name}: library d_v {split.library.d_v} != {w['d_v']}")
        for item in split.items:
            world = item.episode.world
            built = (world.k_views, world.d_v, world.sigma_obs, world.split, item.episode.mode)
            wanted = (w["k_views"], w["d_v"], w["sigma_obs"], name, w["mode"])
            if built != wanted:
                raise AssertionError(f"{name}: built (k_views, d_v, sigma_obs, split, mode) "
                                     f"{built}, spec says {wanted}")
            if (w["layout"] == "forks") != (world.designated is not None):
                raise AssertionError(f"{name}: world layout does not match {w['layout']!r}")
            if len(item.imaginations) != len(item.record.kept):
                raise AssertionError(f"{name}: one imagination per kept sub-instruction expected")


def agent_config(spec, splits):
    """Agent config from [agent], with d_v/k_views taken from what was built."""
    train = splits["train"]
    world = train.items[0].episode.world
    return ag.AgentConfig(vocab_size=len(train.vocab), d_v=train.library.d_v,
                          k_views=world.k_views, **spec["agent"])


def base_config(spec, seed, iterations):
    """Flat-schedule base training without imaginations, as a desk seed runs it."""
    t = spec["train"]
    return tr.TrainConfig(iterations=iterations, batch_size=t["batch_size"],
                          schedule="flat", flat_lr=t["base_lr"], aux_loss="none",
                          use_imaginations=False, seed=seed)


def finetune_config(spec, seed, iterations, aux_loss):
    """Three-stage finetune with the spec's stage fractions and loss weights."""
    t = spec["train"]
    return tr.TrainConfig(iterations=iterations, batch_size=t["batch_size"],
                          aux_loss=aux_loss, lam=t["lam"], infonce_lam=t["infonce_lam"],
                          tau=t["tau"], lr_multiplier=t["lr_multiplier"],
                          stage_fractions=t["stage_fractions"],
                          aux_in_all_stages=t["aux_in_all_stages"], seed=seed)


def portable(ckpt):
    """`ckpt` with zeroed Adam moments: finetunes and evaluation read only the
    parameter values, and zeros keep the stored file small."""
    zeros = {k: v * 0.0 for k, v in ckpt.adam_m.items()}
    return replace(ckpt, adam_m=zeros, adam_v=dict(zeros))
