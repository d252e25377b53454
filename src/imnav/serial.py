"""Generic text tools for the program's artifacts: headers, atomic writes,
config values and training curves. Every artifact starts with the producing
command line and seed as header comments and is written atomically. Config
values in text are parsed by field type. `f32` writes a float32 value as
%.9g decimal text, which reads back exactly.
"""

from __future__ import annotations

import os
import typing
from contextlib import contextmanager
from pathlib import Path


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
# curves
# ---------------------------------------------------------------------------

def write_curves(path, curves, command="", seed=None):
    lines = ["iter\tl_base\tl_aux\tn_im"]
    for it, lb, la, n_im in curves:
        lines.append(f"{it}\t{lb:.6f}\t{la:.6f}\t{n_im}")
    write_text(path, lines, command=command, seed=seed)
