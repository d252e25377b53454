"""Versioned text serialization: splits and curves.

One record per line, a type tag first. A split file holds only what generation
drew; its readers derive the rest as generation does. Float fields use decimal
text: %.9g for float32 payloads (exact round-trip) and the shortest
round-trip form for a world's float64 sigma_obs.
Every artifact starts with the producing command line and seed as header comments
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

SPLIT_TAG = "# imnav-split v3"


def f32(x):
    return f"{float(x):.9g}"


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
    and is removed if the block raises: `path` is never left half-written.
    The directory of `path` is made if it is missing."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
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
    list of (Episode, Instruction, imaginations), its world record, its
    instruction, and one `imag` record per imagination, in kept order. Only
    what generation drew is written: the world record holds the world's
    split, k_views, sigma_obs and fork count, and the draws it keeps
    (`World.draws`, in `world.fork_world`'s order); `dataset.read_split`
    derives the segmentation and each imagination's sub-instruction and
    true class."""
    lines = [f"library {len(library.classes)} {library.d_v}"]
    for c in library.classes:
        lines.append("class {} {} {} {} {}".format(
            c.id, int(c.held_out), len(c.phrase), " ".join(c.phrase),
            " ".join(f32(x) for x in c.prototype)))
    lines.append("background " + " ".join(f32(x) for x in library.background))
    for w, (episode, instruction, imaginations) in enumerate(rows):
        world = episode.world
        lines.append(f"world {w} {world.split} {world.k_views} {float(world.sigma_obs)!r} "
                     f"{len(world.draws) // 4}" + "".join(f" {d}" for d in world.draws))
        lines.append(f"instr {w} {len(instruction.tokens)}"
                     + "".join(f" {t}" for t in instruction.tokens))
        lines.extend(f"imag {w} {im.emitted_class} " + " ".join(f32(x) for x in im.feature)
                     for im in imaginations)
    write_text(path, lines, SPLIT_TAG, command, seed)


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


def read_split(path):
    """The library of a split file and its (Episode, Instruction, drawn) rows
    in world order, where `drawn` lists each imagination's (emitted class,
    feature). Each world record's draws go as they are to `world.fork_world`,
    the function that generated the world, and its episode is its route
    (`world.sample_episode`). FormatError names the line of a malformed
    record: one with a class outside the library, one that names a world
    with no world record, or a second instr record of a world; a class or
    world record whose id is not the next in file order (classes and worlds
    are numbered from 0); a world record whose draw count is not 4 * n_forks
    + 1 for its n_forks, or whose split, k_views, sigma_obs or draws
    `fork_world` rejects; and the library record when its class count is not
    the number of class records. It names the world that has no instr
    record."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SPLIT_TAG:
        raise FormatError(f"{path}: expected header {SPLIT_TAG!r}; "
                          "re-make the split files with `imnav data`")
    classes, background, d_v, worlds = [], None, 0, []
    n_classes = library_line = None

    def malformed(lineno, tag, exc):
        return FormatError(f"{path}:{lineno}: malformed {tag!r} record: {exc}")

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
            raise malformed(lineno, tag, exc) from None
    if library_line is None or background is None or not classes:
        raise FormatError(f"{path}: missing library records")
    if len(classes) != n_classes:
        raise FormatError(f"{path}:{library_line}: malformed 'library' record: says "
                          f"{n_classes} classes but the file has {len(classes)} class records")
    library = wd.Library(classes=tuple(classes), background=background, d_v=d_v)
    rows = []
    for idx, raw in enumerate(worlds):
        if "instr" not in raw:
            raise FormatError(f"{path}: world {idx} has no instr record")
        try:
            world = wd.fork_world(library, raw["k_views"], raw["sigma_obs"], raw["split"],
                                  raw["draws"])
        except ConfigurationError as exc:
            raise malformed(raw["line"], "world", exc) from None
        episode = wd.sample_episode(world)
        rows.append((episode, ins.Instruction(tokens=raw["instr"], episode=episode),
                     raw["drawn"]))
    return library, rows


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def write_curves(path, curves, command="", seed=None):
    lines = ["iter\tl_base\tl_aux\tn_im"]
    for it, lb, la, n_im in curves:
        lines.append(f"{it}\t{lb:.6f}\t{la:.6f}\t{n_im}")
    write_text(path, lines, command=command, seed=seed)
