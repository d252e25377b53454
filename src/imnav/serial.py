"""Versioned text serialization: worlds, corpora, imaginations, curves.

One record per line, a type tag first. Float fields use decimal text: %.9g for
float32 payloads (exact round-trip), %.17g for float64 coordinates and the
shortest round-trip form for a world's float64 sigma_obs. Every
artifact starts with the producing command line and seed as header comments
and is written atomically. Config values in text are parsed by field type.
"""

from __future__ import annotations

import os
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import instructions as ins
from . import world as wd
from .errors import FormatError
from .imagination import Imagination

WORLDS_TAG = "# imnav-worlds v1"
CORPUS_TAG = "# imnav-corpus v1"
IMAGINE_TAG = "# imnav-imagine v1"


def f32(x):
    return f"{float(x):.9g}"


def f64(x):
    return f"{float(x):.17g}"


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def parse_field(cls, name, text):
    """The value of field `name` of dataclass `cls` written as `text`, parsed
    by the field's annotation: int, float, str, bool (true/false) or
    tuple[item, ...], whose items are separated by spaces. Raises ValueError
    on unparsable text."""
    kind = typing.get_type_hints(cls)[name]
    is_tuple = typing.get_origin(kind) is tuple
    item = typing.get_args(kind)[0] if is_tuple else kind
    parse = _parse_bool if item is bool else item
    return tuple(parse(t) for t in text.split()) if is_tuple else parse(text.strip())


@contextmanager
def atomic_open(path, mode="w"):
    """A temporary file beside `path` that replaces it when the block completes
    and is removed if the block raises: `path` is never left half-written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, lines, tag=None, command="", seed=None):
    """Write `lines` under the header: format tag, producing command, seed."""
    head = [tag] if tag else []
    if command:
        head.append(f"# produced-by: {command}")
    if seed is not None:
        head.append(f"# seed: {seed}")
    with atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in head + list(lines)))


class LineReader:
    def __init__(self, path, tag):
        self.path = str(path)
        with open(path, encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        if not self.lines or self.lines[0] != tag:
            raise FormatError(f"{self.path}: expected header {tag!r}")

    def records(self):
        for lineno, line in enumerate(self.lines, start=1):
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split(" ")

    def fail(self, lineno, message):
        raise FormatError(f"{self.path}:{lineno}: {message}")


# ---------------------------------------------------------------------------
# worlds + episodes
# ---------------------------------------------------------------------------

def write_worlds(path, library, pairs, command="", seed=None):
    """`pairs` is a list of (World, Episode)."""
    lines = [f"library {len(library.classes)} {library.d_v}"]
    for c in library.classes:
        lines.append("class {} {} {} {} {}".format(
            c.id, int(c.held_out), len(c.phrase), " ".join(c.phrase),
            " ".join(f32(x) for x in c.prototype)))
    lines.append("background " + " ".join(f32(x) for x in library.background))
    for w_idx, (world, episode) in enumerate(pairs):
        start, goal = world.designated if world.designated else ("-", "-")
        lines.append(f"world {w_idx} {world.split} {world.k_views} {world.d_v} "
                     f"{float(world.sigma_obs)!r} {world.n_nodes} {start} {goal}")
        for node in range(world.n_nodes):
            x, y = world.positions[node]
            lines.append(f"node {w_idx} {node} {f64(x)} {f64(y)}")
        for a, b in world.edges:
            lines.append(f"edge {w_idx} {a} {b}")
        for node in sorted(world.view_map):
            for view, nb in sorted(world.view_map[node].items()):
                lines.append(f"view {w_idx} {node} {view} {nb}")
        for node in sorted(world.placements):
            for cid, view in world.placements[node]:
                lines.append(f"place {w_idx} {node} {view} {cid}")
        # v1 columns: the mode, then the target landmark, which no episode has
        lines.append(f"episode {w_idx} {episode.mode} {episode.start} {episode.goal} "
                     f"- {len(episode.teacher_path)} "
                     + " ".join(str(n) for n in episode.teacher_path))
    write_text(path, lines, WORLDS_TAG, command, seed)


def _node(world, text):
    """Node `text` of a world record; ValueError unless below its n_nodes."""
    node = int(text)
    if not 0 <= node < world["n_nodes"]:
        raise ValueError(f"node {node} outside the world's {world['n_nodes']} nodes")
    return node


def read_worlds(path):
    """The library and (World, Episode) pairs of a worlds file. FormatError
    names the line of a malformed record, or of one that names a node its
    world does not declare, and the world whose node records do not cover
    0..n_nodes-1 or that has no episode record."""
    reader = LineReader(path, WORLDS_TAG)
    classes = []
    background = None
    d_v = None
    worlds_raw = {}
    episodes_raw = {}
    for lineno, parts in reader.records():
        try:
            tag = parts[0]
            if tag == "library":
                d_v = int(parts[2])
            elif tag == "class":
                cid, held, n_words = int(parts[1]), bool(int(parts[2])), int(parts[3])
                words = tuple(parts[4:4 + n_words])
                proto = np.asarray([float(x) for x in parts[4 + n_words:]], dtype=np.float32)
                if len(proto) != d_v:
                    reader.fail(lineno, f"prototype has {len(proto)} dims, expected {d_v}")
                classes.append(wd.LandmarkClass(cid, words, proto, held))
            elif tag == "background":
                background = np.asarray([float(x) for x in parts[1:]], dtype=np.float32)
                if len(background) != d_v:
                    reader.fail(lineno, f"background has {len(background)} dims, expected {d_v}")
            elif tag == "world":
                idx = int(parts[1])
                w = worlds_raw[idx] = dict(
                    split=parts[2], k_views=int(parts[3]), d_v=int(parts[4]),
                    sigma_obs=float(parts[5]), n_nodes=int(parts[6]),
                    designated=None, nodes={}, edges=[], views={}, places={})
                if parts[7] != "-":
                    w["designated"] = (_node(w, parts[7]), _node(w, parts[8]))
            elif tag == "node":
                w = worlds_raw[int(parts[1])]
                w["nodes"][_node(w, parts[2])] = (float(parts[3]), float(parts[4]))
            elif tag == "edge":
                w = worlds_raw[int(parts[1])]
                w["edges"].append((_node(w, parts[2]), _node(w, parts[3])))
            elif tag == "view":
                w = worlds_raw[int(parts[1])]
                w["views"].setdefault(_node(w, parts[2]), {})[int(parts[3])] = _node(w, parts[4])
            elif tag == "place":
                w = worlds_raw[int(parts[1])]
                w["places"].setdefault(_node(w, parts[2]), []).append((int(parts[4]),
                                                                       int(parts[3])))
            elif tag == "episode":
                idx = int(parts[1])
                w = worlds_raw[idx]
                n = int(parts[6])
                if parts[2] != wd.EPISODE_MODE or parts[5] != "-":
                    reader.fail(lineno, f"episode mode {parts[2]!r} with target {parts[5]!r}: "
                                f"the only episode mode is {wd.EPISODE_MODE!r}, without a target")
                if len(parts) != 7 + n:
                    reader.fail(lineno, f"episode path says {n} nodes but lists {len(parts) - 7}")
                episodes_raw[idx] = dict(start=_node(w, parts[3]), goal=_node(w, parts[4]),
                                         path=tuple(_node(w, x) for x in parts[7:]))
            else:
                reader.fail(lineno, f"unknown record tag {tag!r}")
        except (ValueError, IndexError, KeyError) as exc:
            reader.fail(lineno, f"malformed {parts[0]!r} record: {exc}")
    if background is None or not classes:
        raise FormatError(f"{path}: missing library records")
    library = wd.Library(classes=tuple(sorted(classes, key=lambda c: c.id)),
                         background=background, d_v=d_v)
    pairs = []
    for idx in sorted(worlds_raw):
        raw = worlds_raw[idx]
        if len(raw["nodes"]) != raw["n_nodes"]:    # each is below n_nodes
            raise FormatError(f"{path}: world {idx} has node records for "
                              f"{len(raw['nodes'])} of its {raw['n_nodes']} nodes")
        positions = np.asarray([raw["nodes"][i] for i in range(raw["n_nodes"])], dtype=np.float64)
        world = wd.World(
            k_views=raw["k_views"], d_v=raw["d_v"], sigma_obs=raw["sigma_obs"],
            split=raw["split"], positions=positions,
            edges=tuple(sorted(tuple(sorted(e)) for e in raw["edges"])),
            view_map={n: raw["views"].get(n, {}) for n in range(raw["n_nodes"])},
            placements={n: tuple(v) for n, v in raw["places"].items()},
            library=library, designated=raw["designated"])
        ep_raw = episodes_raw.get(idx)
        if ep_raw is None:
            raise FormatError(f"{path}: world {idx} has no episode record")
        pairs.append((world, wd.Episode(world=world, start=ep_raw["start"], goal=ep_raw["goal"],
                                        teacher_path=ep_raw["path"])))
    return library, pairs


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def write_corpus(path, records, world_indices, command="", seed=None):
    lines = []
    for idx, (rec, w_idx) in enumerate(zip(records, world_indices)):
        instr = rec.instruction
        lines.append(f"instr {idx} {w_idx} {wd.EPISODE_MODE} {len(instr.tokens)}"
                     + "".join(f" {t}" for t in instr.tokens))
        golds = "".join(f" {s} {e} {cls if cls is not None else '-'}"
                        for (s, e), cls in zip(instr.gold_segments, instr.gold_landmarks))
        lines.append(f"gold {idx} {len(instr.gold_segments)}{golds}")
        for sub in rec.subs:
            phrases = "+".join(p.replace(" ", "_") for p in sub.noun_phrases) or "-"
            indices = " ".join(str(i) for i in sub.noun_token_indices)
            lines.append(f"seg {idx} {sub.index} {sub.span[0]} {sub.span[1]} "
                         f"{sub.filter_verdict} "
                         f"{sub.landmark_class if sub.landmark_class is not None else '-'} "
                         f"{phrases} {len(sub.noun_token_indices)}"
                         + (f" {indices}" if indices else ""))
    write_text(path, lines, CORPUS_TAG, command, seed)


def read_corpus(path, pairs):
    """Rebuild InstructionRecords; `pairs` comes from read_worlds."""
    reader = LineReader(path, CORPUS_TAG)
    by_idx = {}
    for lineno, parts in reader.records():
        try:
            tag = parts[0]
            if tag == "instr":
                idx, w_idx, n = int(parts[1]), int(parts[2]), int(parts[4])
                if parts[3] != wd.EPISODE_MODE:
                    reader.fail(lineno, f"instruction mode {parts[3]!r}: the only episode mode "
                                f"is {wd.EPISODE_MODE!r}")
                if len(parts) != 5 + n:
                    reader.fail(lineno, f"instruction says {n} tokens but lists {len(parts) - 5}")
                if not 0 <= w_idx < len(pairs):
                    reader.fail(lineno, f"world index {w_idx} outside the {len(pairs)} worlds")
                by_idx[idx] = dict(world=w_idx, tokens=tuple(parts[5:]), gold=[], subs=[])
            elif tag == "gold":
                idx, n = int(parts[1]), int(parts[2])
                if len(parts) != 3 + 3 * n:
                    reader.fail(lineno, f"gold says {n} segments but lists "
                                f"{len(parts) - 3} fields, not {3 * n}")
                fields = parts[3:]
                golds = []
                for k in range(n):
                    s, e, cls = fields[3 * k], fields[3 * k + 1], fields[3 * k + 2]
                    golds.append(((int(s), int(e)), None if cls == "-" else int(cls)))
                by_idx[idx]["gold"] = golds
            elif tag == "seg":
                idx = int(parts[1])
                n_idx = int(parts[8])
                if len(parts) != 9 + n_idx:
                    reader.fail(lineno, f"segment says {n_idx} noun token indices but lists "
                                f"{len(parts) - 9}")
                sub = ins.SubInstruction(
                    index=int(parts[2]), span=(int(parts[3]), int(parts[4])),
                    tokens=(),
                    noun_phrases=tuple(p.replace("_", " ") for p in parts[7].split("+")) if parts[7] != "-" else (),
                    noun_token_indices=tuple(int(x) for x in parts[9:]),
                    landmark_class=None if parts[6] == "-" else int(parts[6]),
                    filter_verdict=None if parts[5] == "None" else parts[5])
                by_idx[idx]["subs"].append(sub)
            else:
                reader.fail(lineno, f"unknown record tag {tag!r}")
        except (ValueError, IndexError, KeyError) as exc:
            reader.fail(lineno, f"malformed {parts[0]!r} record: {exc}")
    records = []
    world_indices = []
    for idx in sorted(by_idx):
        raw = by_idx[idx]
        _, episode = pairs[raw["world"]]
        instr = ins.Instruction(
            tokens=raw["tokens"], episode=episode,
            gold_segments=tuple(sp for sp, _ in raw["gold"]),
            gold_landmarks=tuple(cls for _, cls in raw["gold"]))
        subs = sorted(raw["subs"], key=lambda s: s.index)
        for sub in subs:
            sub.tokens = instr.tokens[sub.span[0]:sub.span[1]]
        rec = ins.InstructionRecord(instruction=instr, subs=subs,
                                    kept=[s for s in subs if s.filter_verdict == "kept"])
        records.append(rec)
        world_indices.append(raw["world"])
    return records, world_indices


# ---------------------------------------------------------------------------
# imaginations
# ---------------------------------------------------------------------------

def write_imaginations(path, imagination_sets, command="", seed=None):
    lines = [f"imag {idx} {im.sub_index} {im.true_class} {im.emitted_class} "
             + " ".join(f32(x) for x in im.feature)
             for idx, group in enumerate(imagination_sets) for im in group]
    write_text(path, lines, IMAGINE_TAG, command, seed)


def read_imaginations(path, n_instructions, d_v):
    reader = LineReader(path, IMAGINE_TAG)
    sets = [[] for _ in range(n_instructions)]
    for lineno, parts in reader.records():
        if parts[0] != "imag":
            reader.fail(lineno, f"unknown record tag {parts[0]!r}")
        try:
            idx = int(parts[1])
            if not 0 <= idx < n_instructions:
                reader.fail(lineno, f"instruction index {idx} outside the {n_instructions} "
                            f"instructions")
            feature = np.asarray([float(x) for x in parts[5:]], dtype=np.float32)
            if len(feature) != d_v:
                reader.fail(lineno, f"feature has {len(feature)} dims, expected {d_v}")
            sets[idx].append(Imagination(feature=feature, sub_index=int(parts[2]),
                                         true_class=int(parts[3]), emitted_class=int(parts[4])))
        except (ValueError, IndexError) as exc:
            reader.fail(lineno, f"malformed imag record: {exc}")
    return sets


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def write_curves(path, curves, command="", seed=None):
    lines = ["iter\tl_base\tl_aux\tn_im"]
    for it, lb, la, n_im in curves:
        lines.append(f"{it}\t{lb:.6f}\t{la:.6f}\t{n_im}")
    write_text(path, lines, command=command, seed=seed)
