"""Versioned text serialization: splits and curves.

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
from .errors import ConfigurationError, FormatError

SPLIT_TAG = "# imnav-split v1"


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


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def write_split(path, library, rows, command="", seed=None):
    """Write a split file: the library, then for each world `w` of `rows`, a
    list of (Episode, Instruction, imaginations), its world, node, edge, view
    and place records, its episode, instruction and gold segments, and one
    `imag` record per imagination, in kept order. Only what generation drew is
    written: `dataset.read_split` derives the segmentation and each
    imagination's sub-instruction and true class from the instruction."""
    lines = [f"library {len(library.classes)} {library.d_v}"]
    for c in library.classes:
        lines.append("class {} {} {} {} {}".format(
            c.id, int(c.held_out), len(c.phrase), " ".join(c.phrase),
            " ".join(f32(x) for x in c.prototype)))
    lines.append("background " + " ".join(f32(x) for x in library.background))
    for w, (episode, instruction, imaginations) in enumerate(rows):
        world = episode.world
        start, goal = world.designated if world.designated else ("-", "-")
        lines.append(f"world {w} {world.split} {world.k_views} {world.d_v} "
                     f"{float(world.sigma_obs)!r} {world.n_nodes} {start} {goal}")
        for node in range(world.n_nodes):
            x, y = world.positions[node]
            lines.append(f"node {w} {node} {f64(x)} {f64(y)}")
        for a, b in world.edges:
            lines.append(f"edge {w} {a} {b}")
        for node in sorted(world.view_map):
            for view, nb in sorted(world.view_map[node].items()):
                lines.append(f"view {w} {node} {view} {nb}")
        for node in sorted(world.placements):
            for cid, view in world.placements[node]:
                lines.append(f"place {w} {node} {view} {cid}")
        lines.append(f"episode {w} {episode.start} {episode.goal} {len(episode.teacher_path)}"
                     + "".join(f" {n}" for n in episode.teacher_path))
        lines.append(f"instr {w} {len(instruction.tokens)}"
                     + "".join(f" {t}" for t in instruction.tokens))
        lines.append(f"gold {w} {len(instruction.gold_segments)}" + "".join(
            f" {s} {e} {'-' if cls is None else cls}"
            for (s, e), cls in zip(instruction.gold_segments, instruction.gold_landmarks)))
        lines.extend(f"imag {w} {im.emitted_class} " + " ".join(f32(x) for x in im.feature)
                     for im in imaginations)
    write_text(path, lines, SPLIT_TAG, command, seed)


def _index(text, count, what):
    """`text` as an index of `count` `what`s; ValueError unless in range."""
    value = int(text)
    if not 0 <= value < count:
        raise ValueError(f"{what} {value} outside [0, {count})")
    return value


def _counted(parts, at, what, width=1):
    """The fields after the count of `what` at parts[at]; ValueError unless
    there are `width` of them per counted item."""
    n, fields = int(parts[at]), parts[at + 1:]
    if len(fields) != width * n:
        raise ValueError(f"says {n} {what} but lists {len(fields)} fields, not {width * n}")
    return fields


def _vector(fields, d_v, what):
    """`fields` as a float32 vector; ValueError unless it has `d_v` of them."""
    vector = np.asarray([float(x) for x in fields], dtype=np.float32)
    if len(vector) != d_v:
        raise ValueError(f"{what} has {len(vector)} dims, expected {d_v}")
    return vector


def read_split(path):
    """The library of a split file and its (Episode, Instruction, drawn) rows
    in world order, where `drawn` lists each imagination's (emitted class,
    feature). FormatError names the line of a malformed record: one with a
    node, view or class outside its world or library, one that names a world
    with no world record, a world whose d_v is not the library's, or a second
    world, episode, instr or gold record of a world; and the library record
    when its class count is not the number of class records. It names the
    world whose node records do not cover 0..n_nodes-1 or that has no
    episode, instr or gold record."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SPLIT_TAG:
        raise FormatError(f"{path}: expected header {SPLIT_TAG!r}")
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
                    int(parts[0]), tuple(parts[3:3 + n_words]),
                    _vector(parts[3 + n_words:], d_v, "prototype"), bool(int(parts[1]))))
            elif tag == "background":
                background = _vector(parts, d_v, "background")
            elif tag == "world":
                idx = int(parts[0])
                if idx != len(worlds):      # worlds are numbered from 0 in file order
                    raise ValueError(f"a second world record for world {idx}" if idx < len(worlds)
                                     else f"world {idx} comes before world {len(worlds)}")
                w = dict(split=parts[1], k_views=int(parts[2]), d_v=int(parts[3]),
                         sigma_obs=float(parts[4]), n_nodes=int(parts[5]),
                         designated=None, nodes={}, edges=[], views={}, places={}, drawn=[])
                if w["d_v"] != d_v:
                    raise ValueError(f"d_v {w['d_v']} is not the library's {d_v}")
                wd.check_sigma_obs(w["sigma_obs"])
                if parts[6] != "-":
                    w["designated"] = (_index(parts[6], w["n_nodes"], "node"),
                                       _index(parts[7], w["n_nodes"], "node"))
                worlds.append(w)
            elif tag in ("node", "edge", "view", "place"):
                w = world_at(parts[0])
                n_nodes, k_views = w["n_nodes"], w["k_views"]
                node = _index(parts[1], n_nodes, "node")
                if tag == "node":
                    w["nodes"][node] = (float(parts[2]), float(parts[3]))
                elif tag == "edge":
                    w["edges"].append((node, _index(parts[2], n_nodes, "node")))
                elif tag == "view":
                    w["views"].setdefault(node, {})[_index(parts[2], k_views, "view")] = (
                        _index(parts[3], n_nodes, "node"))
                else:
                    w["places"].setdefault(node, []).append(
                        (_index(parts[3], len(classes), "class"), _index(parts[2], k_views, "view")))
            elif tag == "episode":
                w = world_at(parts[0], tag)
                w[tag] = tuple(_index(x, w["n_nodes"], "node")
                               for x in parts[1:3] + _counted(parts, 3, "nodes"))
            elif tag == "instr":
                world_at(parts[0], tag)[tag] = tuple(_counted(parts, 1, "tokens"))
            elif tag == "gold":
                fields = _counted(parts, 1, "segments", width=3)
                world_at(parts[0], tag)[tag] = [
                    ((int(s), int(e)), None if c == "-" else _index(c, len(classes), "class"))
                    for s, e, c in zip(fields[0::3], fields[1::3], fields[2::3])]
            elif tag == "imag":
                world_at(parts[0])["drawn"].append(
                    (_index(parts[1], len(classes), "class"), _vector(parts[2:], d_v, "feature")))
            else:
                raise ValueError("unknown record tag")
        except (ValueError, IndexError, ConfigurationError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed {tag!r} record: {exc}") from None
    if library_line is None or background is None or not classes:
        raise FormatError(f"{path}: missing library records")
    if len(classes) != n_classes:
        raise FormatError(f"{path}:{library_line}: malformed 'library' record: says "
                          f"{n_classes} classes but the file has {len(classes)} class records")
    library = wd.Library(classes=tuple(sorted(classes, key=lambda c: c.id)),
                         background=background, d_v=d_v)
    rows = []
    for idx, raw in enumerate(worlds):
        if len(raw["nodes"]) != raw["n_nodes"]:    # each is below n_nodes
            raise FormatError(f"{path}: world {idx} has node records for "
                              f"{len(raw['nodes'])} of its {raw['n_nodes']} nodes")
        missing = [tag for tag in ("episode", "instr", "gold") if tag not in raw]
        if missing:
            raise FormatError(f"{path}: world {idx} has no {missing[0]} record")
        positions = np.asarray([raw["nodes"][i] for i in range(raw["n_nodes"])], dtype=np.float64)
        world = wd.World(
            k_views=raw["k_views"], d_v=raw["d_v"], sigma_obs=raw["sigma_obs"],
            split=raw["split"], positions=positions,
            edges=tuple(sorted(tuple(sorted(e)) for e in raw["edges"])),
            view_map={n: raw["views"].get(n, {}) for n in range(raw["n_nodes"])},
            placements={n: tuple(v) for n, v in raw["places"].items()},
            library=library, designated=raw["designated"])
        start, goal, *teacher_path = raw["episode"]
        episode = wd.Episode(world=world, start=start, goal=goal, teacher_path=tuple(teacher_path))
        instruction = ins.Instruction(
            tokens=raw["instr"], episode=episode,
            gold_segments=tuple(span for span, _ in raw["gold"]),
            gold_landmarks=tuple(cls for _, cls in raw["gold"]))
        rows.append((episode, instruction, raw["drawn"]))
    return library, rows


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def write_curves(path, curves, command="", seed=None):
    lines = ["iter\tl_base\tl_aux\tn_im"]
    for it, lb, la, n_im in curves:
        lines.append(f"{it}\t{lb:.6f}\t{la:.6f}\t{n_im}")
    write_text(path, lines, command=command, seed=seed)
