"""File I/O shared by every module: atomic writes and strict JSON reads.

Each payload goes to `<path>.tmp` and is renamed over `path`, so a reader
never sees a half-written file. A payload may come in several chunks (say a
header and an array body), written in turn so none is copied into a joined
bytes object. Every JSON input goes through `read_json` and `json_check`.
"""

from __future__ import annotations

import json
import os
import sys

# the JSON kind each Python type stands for; booleans are not numbers
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a finite number", bool: "a boolean"}


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` back to back to `path`, atomically."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def atomic_write_text(path: str, payload: str) -> None:
    atomic_write_bytes(path, payload.encode())


def read_json(path: str):
    """The parsed UTF-8 JSON text of `path`; a decoding or syntax error
    raises ValueError starting with the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not a JSON file: {exc}") from exc


def json_check(value, kind: type, where: str):
    """`value` when it is of the JSON `kind` (a key of `_KIND_NAMES`), else
    ValueError naming `where` and the value."""
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise ValueError(f"{where} {value!r:.80} ({type(value).__name__}) "
                         f"is not {_KIND_NAMES[kind]}")
    return value


def json_field(obj, key: str, kind: type, where: str):
    """Field `key` of the JSON object `obj`, checked to be of `kind`.
    Errors name `where`, the field and the value."""
    if key not in json_check(obj, dict, where):
        raise ValueError(f"{where}: {key} is missing (None), not {_KIND_NAMES[kind]}")
    return json_check(obj[key], kind, f"{where}: {key}")
