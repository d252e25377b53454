"""Split assembly and the split file format: worlds -> episodes ->
instructions -> imaginations, either generated or read back from the data
directory that `write_split` fills, one <split>.txt file per split.

A split file holds one record per line, a type tag first, and only what
generation drew; `read_split` derives the rest as generation does. Float
fields use decimal text: %.9g for float32 payloads (exact round-trip) and
the shortest round-trip form for a world's float64 sigma_obs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import imagination as im
from . import instructions as ins
from . import serial
from . import world as wd
from .errors import ConfigurationError, FormatError

DATA_DIR = Path(__file__).parent / "data"
SPLIT_TAG = "# imnav-split v3"


@dataclass
class EpisodeBundle:
    episode: object
    record: object          # InstructionRecord
    imaginations: list
    token_ids: tuple


@dataclass
class Split:
    items: list
    vocab: tuple
    library: object
    split: str


def text_assets(library):
    """The packaged instruction templates, and the tagger lexicon: the
    packaged nouns and blacklist, extended with `library`'s landmark words."""
    templates = ins.load_templates(DATA_DIR / "templates.txt")
    lexicon = ins.load_lexicon(DATA_DIR / "lexicon_nouns.txt",
                               DATA_DIR / "lexicon_blacklist.txt", library)
    return templates, lexicon


def load_assets(d_v):
    """The packaged data: the landmark library at feature width `d_v`, and
    its `text_assets`."""
    library = wd.load_library(DATA_DIR / "landmarks.txt", d_v=d_v)
    return (library, *text_assets(library))


def bundle(episodes, records, imagination_sets, vocab, library, split):
    """Pair each episode with its instruction record, imaginations and token ids."""
    word_to_id = {w: i for i, w in enumerate(vocab)}

    def token_ids(index, rec):
        try:
            return tuple(word_to_id[t] for t in rec.tokens)
        except KeyError as exc:
            raise FormatError(f"instruction {index}: word {exc.args[0]!r} is not in the "
                              "vocabulary of the packaged templates and landmarks") from None

    items = [EpisodeBundle(episode=ep, record=rec, imaginations=imags,
                           token_ids=token_ids(i, rec))
             for i, (ep, rec, imags) in enumerate(zip(episodes, records, imagination_sets))]
    return Split(items=items, vocab=vocab, library=library, split=split)


def build_split(world_config, n_worlds, templates, lexicon, vocab,
                imagination_config, world_seed, text_seed, imagine_seed):
    """Generate `n_worlds` worlds with one episode each and build the corpus."""
    episodes = [wd.sample_episode(wd.generate_world(world_config, seed=world_seed * 1009 + i))
                for i in range(n_worlds)]
    records = ins.build_corpus(episodes, templates, lexicon, seed=text_seed)
    sets = im.imagine_dataset(records, world_config.library, imagination_config, seed=imagine_seed)
    return bundle(episodes, records, sets, vocab, world_config.library, world_config.split)


def write_split(data_dir, split, command="", seed=None):
    """Write `split` into `data_dir` as <split>.txt and return its corpus
    statistics. The file holds the library, then for each item its world
    record, its instruction, and one `imag` record per imagination, in kept
    order. Only what generation drew is written: the world record holds the
    world's split, k_views, sigma_obs and fork count, and the draws it keeps
    (`World.draws`, in `world.fork_world`'s order); `read_split` derives the
    graph, the route, the segmentation and each imagination's sub-instruction
    and true class."""
    library = split.library
    lines = [f"library {len(library.classes)} {library.d_v}"]
    for c in library.classes:
        lines.append("class {} {} {} {} {}".format(
            c.id, int(c.held_out), len(c.phrase), " ".join(c.phrase),
            " ".join(serial.f32(x) for x in c.prototype)))
    lines.append("background " + " ".join(serial.f32(x) for x in library.background))
    for w, item in enumerate(split.items):
        world, tokens = item.episode.world, item.record.tokens
        lines.append(f"world {w} {world.split} {world.k_views} {float(world.sigma_obs)!r} "
                     f"{len(world.draws) // 4}" + "".join(f" {d}" for d in world.draws))
        lines.append(f"instr {w} {len(tokens)}" + "".join(f" {t}" for t in tokens))
        lines.extend(f"imag {w} {imag.emitted_class} "
                     + " ".join(serial.f32(x) for x in imag.feature) for imag in item.imaginations)
    serial.write_text(Path(data_dir) / f"{split.split}.txt", lines, SPLIT_TAG, command, seed)
    return ins.corpus_stats([item.record for item in split.items])


def _index(text, count, what):
    """`text` as an index of `count` `what`s; ValueError unless in range."""
    value = int(text)
    if not 0 <= value < count:
        raise ValueError(f"{what} {value} outside [0, {count})")
    return value


def _next_id(text, count, what):
    """`text` as the id of `what` record `count`, from 0 in file order; else ValueError."""
    value = int(text)
    if value != count:
        raise ValueError(f"a second {what} record for {what} {value}" if value < count
                         else f"{what} {value} comes before {what} {count}")
    return value


def _vector(fields, d_v, what):
    """`fields` as a float32 vector; ValueError unless it has `d_v` of them."""
    vector = np.asarray([float(x) for x in fields], dtype=np.float32)
    if len(vector) != d_v:
        raise ValueError(f"{what} has {len(vector)} dims, expected {d_v}")
    return vector


def _malformed(path, lineno, tag, exc):
    return FormatError(f"{path}:{lineno}: malformed {tag!r} record: {exc}")


def _read_records(path):
    """The library of the split file at `path` and its world records in
    order, each a dict of its line, split, k_views, sigma_obs, draws, instr
    tokens and drawn (emitted class, feature) pairs."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SPLIT_TAG:
        raise FormatError(f"{path}: expected header {SPLIT_TAG!r}; "
                          "re-make the split files with `imnav data`")
    classes, background, d_v, worlds = [], None, 0, []
    n_classes = library_line = None

    def world_at(text, record=None):   # world `text`, with no `record` record yet
        w = worlds[_index(text, len(worlds), "world")]
        if record in w:
            raise ValueError(f"a second {record} record for world {text}")
        return w

    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        tag, *parts = line.split(" ")
        try:
            if tag == "library":
                n_classes, d_v, library_line = int(parts[0]), int(parts[1]), lineno
            elif tag == "class":
                n_words = int(parts[2])
                classes.append(wd.LandmarkClass(
                    _next_id(parts[0], len(classes), "class"), tuple(parts[3:3 + n_words]),
                    _vector(parts[3 + n_words:], d_v, "prototype"), bool(int(parts[1]))))
            elif tag == "background":
                background = _vector(parts, d_v, "background")
            elif tag == "world":
                _next_id(parts[0], len(worlds), "world")
                k_views, sigma_obs, n_forks = int(parts[2]), float(parts[3]), int(parts[4])
                draws = [int(d) for d in parts[5:]]
                if len(draws) != 4 * n_forks + 1:
                    raise ValueError(f"has {len(draws)} draws; n_forks={n_forks} makes "
                                     f"{4 * n_forks + 1}")
                worlds.append(dict(line=lineno, split=parts[1], k_views=k_views,
                                   sigma_obs=sigma_obs, draws=draws, drawn=[]))
            elif tag == "instr":
                if int(parts[1]) != len(parts) - 2:
                    raise ValueError(f"says {parts[1]} tokens but lists {len(parts) - 2}")
                world_at(parts[0], tag)[tag] = tuple(parts[2:])
            elif tag == "imag":
                world_at(parts[0])["drawn"].append(
                    (_index(parts[1], len(classes), "class"), _vector(parts[2:], d_v, "feature")))
            else:
                raise ValueError("unknown record tag")
        except (ValueError, IndexError, ConfigurationError) as exc:
            raise _malformed(path, lineno, tag, exc) from None
    if library_line is None or background is None or not classes:
        raise FormatError(f"{path}: missing library records")
    if len(classes) != n_classes:
        raise FormatError(f"{path}:{library_line}: malformed 'library' record: says "
                          f"{n_classes} classes but the file has {len(classes)} class records")
    return wd.Library(classes=tuple(classes), background=background, d_v=d_v), worlds


def read_split(data_dir, split):
    """Split `split` of a data directory that `write_split` filled. Each
    world record's draws go as they are to `world.fork_world`, the function
    that generated the world, and its episode is its route
    (`world.sample_episode`). Each instruction is segmented and filtered as
    `build_split` does it, so that segment i takes the landmark class of
    route step i, and the j-th imagination of a world belongs to its j-th
    kept sub-instruction, whose index and landmark class it takes.

    FormatError names the line of a malformed record: one with a class
    outside the library, one that names a world with no world record, or a
    second instr record of a world; a class or world record whose id is not
    the next in file order (classes and worlds are numbered from 0); a world
    record whose draw count is not 4 * n_forks + 1 for its n_forks, or whose
    split, k_views, sigma_obs or draws `fork_world` rejects; and the library
    record when its class count is not the number of class records. It
    names the world that has no instr record, whose imaginations do not
    match its kept sub-instructions, or one of whose kept sub-instructions
    has no route step that shows a landmark, and the split of a world of
    another split. Worlds are assembled in file order, and the first
    world's fault is the one reported."""
    path = Path(data_dir) / f"{split}.txt"
    library, worlds = _read_records(path)
    templates, lexicon = text_assets(library)
    episodes, records, sets = [], [], []
    for w, raw in enumerate(worlds):
        if "instr" not in raw:
            raise FormatError(f"{path}: world {w} has no instr record")
        try:
            world = wd.fork_world(library, raw["k_views"], raw["sigma_obs"], raw["split"],
                                  raw["draws"])
        except ConfigurationError as exc:
            raise _malformed(path, raw["line"], "world", exc) from None
        if world.split != split:
            raise FormatError(f"{path}: holds worlds of split {world.split!r}, not {split!r}")
        episode = wd.sample_episode(world)
        record = ins.build_record(raw["instr"], episode.route_landmarks, lexicon)
        drawn = raw["drawn"]
        if len(drawn) != len(record.kept):
            raise FormatError(f"{path}: world {w} has {len(drawn)} imaginations for its "
                              f"{len(record.kept)} kept sub-instructions")
        unclassed = [sub.index for sub in record.kept if sub.landmark_class is None]
        if unclassed:
            raise FormatError(f"{path}: world {w}: kept sub-instruction {unclassed[0]} has no "
                              "route step that shows a landmark to imagine")
        episodes.append(episode)
        records.append(record)
        sets.append([im.Imagination(feature=feature, sub_index=sub.index,
                                    true_class=sub.landmark_class, emitted_class=emitted)
                     for sub, (emitted, feature) in zip(record.kept, drawn)])
    return bundle(episodes, records, sets, ins.build_vocab(templates, library), library, split)


def standard_splits(library, templates, lexicon, *, layout=wd.WorldConfig.layout,
                    n_forks=wd.WorldConfig.n_forks, k_views=wd.WorldConfig.k_views,
                    sigma_obs=wd.WorldConfig.sigma_obs, mode=wd.EPISODE_MODE,
                    train_n, val_seen_n, val_unseen_n,
                    imagination_config=None, data_seed):
    """The train/val_seen/val_unseen triple used by experiments and tests.
    `mode` must be the one episode mode; experiment specs still name it."""
    wd.check_mode(mode)
    vocab = ins.build_vocab(templates, library)
    imagination_config = imagination_config or im.ImaginationConfig()
    base = wd.WorldConfig(library=library, layout=layout, n_forks=n_forks,
                          k_views=k_views, sigma_obs=sigma_obs)
    out = {}
    for split_name, count, offset in (("train", train_n, 0),
                                      ("val_seen", val_seen_n, 50021),
                                      ("val_unseen", val_unseen_n, 90019)):
        cfg = replace(base, split=split_name)
        out[split_name] = build_split(
            cfg, count, templates, lexicon, vocab, imagination_config,
            world_seed=data_seed * 7 + offset, text_seed=data_seed * 13 + offset + 1,
            imagine_seed=data_seed * 17 + offset + 2)
    return out
