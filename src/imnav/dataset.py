"""Split assembly: worlds -> episodes -> instructions -> imaginations, either
generated or read back from the data directory that `write_split` fills,
one <split>.txt file per split."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from . import imagination as im
from . import instructions as ins
from . import serial
from . import world as wd
from .errors import FormatError

DATA_DIR = Path(__file__).parent / "data"


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
            return tuple(word_to_id[t] for t in rec.instruction.tokens)
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
    records = ins.build_corpus(episodes, templates, lexicon, seed=text_seed, vocab=vocab)
    sets = im.imagine_dataset(records, world_config.library, imagination_config, seed=imagine_seed)
    return bundle(episodes, records, sets, vocab, world_config.library, world_config.split)


def write_split(data_dir, split, command="", seed=None):
    """Write `split` into `data_dir` as <split>.txt (see `serial.write_split`)
    and return its corpus statistics."""
    records = [item.record for item in split.items]
    serial.write_split(Path(data_dir) / f"{split.split}.txt", split.library,
                       [(item.episode, item.record.instruction, item.imaginations)
                        for item in split.items], command, seed)
    return ins.corpus_stats(records)


def read_split(data_dir, split):
    """Split `split` of a data directory that `write_split` filled. Each
    instruction is segmented and filtered as `build_split` does it, so that
    segment i takes the landmark class of route step i, and the j-th
    imagination of a world belongs to its j-th kept sub-instruction, whose
    index and landmark class it takes. FormatError if the file holds worlds
    of another split, or names the world whose imaginations do not match its
    kept sub-instructions, or one of whose kept sub-instructions has no
    route step that shows a landmark."""
    path = Path(data_dir) / f"{split}.txt"
    library, rows = serial.read_split(path)
    others = sorted({episode.world.split for episode, _, _ in rows} - {split})
    if others:
        raise FormatError(f"{path}: holds worlds of split {others[0]!r}, not {split!r}")
    templates, lexicon = text_assets(library)
    records, sets = [], []
    for w, (_, instruction, drawn) in enumerate(rows):
        record = ins.build_record(instruction, lexicon)
        if len(drawn) != len(record.kept):
            raise FormatError(f"{path}: world {w} has {len(drawn)} imaginations for its "
                              f"{len(record.kept)} kept sub-instructions")
        unclassed = [sub.index for sub in record.kept if sub.landmark_class is None]
        if unclassed:
            raise FormatError(f"{path}: world {w}: kept sub-instruction {unclassed[0]} has no "
                              "route step that shows a landmark to imagine")
        records.append(record)
        sets.append([im.Imagination(feature=feature, sub_index=sub.index,
                                    true_class=sub.landmark_class, emitted_class=emitted)
                     for sub, (emitted, feature) in zip(record.kept, drawn)])
    return bundle([episode for episode, _, _ in rows], records, sets,
                  ins.build_vocab(templates, library), library, split)


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
