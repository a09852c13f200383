"""File I/O shared by every module: atomic writes and strict JSON.

Each payload goes to `<path>.tmp` and is renamed over `path`, so a reader
never sees a half-written file; a failed write removes the temp file. A
payload may come in several chunks (say a header and an array body), written
in turn so none is copied into a joined bytes object. Every JSON input goes
through `read_json`, which refuses a key repeated within an object, and
`json_check`; every JSON output is `json_text`, strict RFC 8259 with no NaN
or infinity.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

# the JSON kind each Python type stands for; booleans are not numbers
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a finite number", bool: "a boolean"}


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` back to back to `path`, atomically; on
    any error or interrupt the temp file is removed and `path` is untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def atomic_copy(src: str, dst: str) -> None:
    """Write the bytes of the file `src` to `dst`, atomically."""
    with open(src, "rb") as fh:
        atomic_write_bytes(dst, fh.read())


def atomic_write_text(path: str, payload: str) -> None:
    atomic_write_bytes(path, payload.encode())


def refuse_non_finite(arr: np.ndarray, where: str) -> None:
    """Raise ValueError, prefixed with `where`, naming the first non-finite value."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{where}: non-finite value {float(arr.flat[bad[0]])!r} "
                         f"at flat index {bad[0]}")


def _non_finite_at(obj, at: str = ""):
    """(location, value) of the first non-finite float in the JSON tree `obj`
    found at `at`, or None; a location reads like `classes[0].ap`."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (at, obj)
    if isinstance(obj, dict):
        items = ((f"{at}.{k}" if at else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{at}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_at(v, where) for where, v in items)), None)


def json_text(path: str, obj, indent=None, sort_keys: bool = False) -> str:
    """`obj` as strict JSON text and a newline; a NaN or an infinity raises
    ValueError starting with `path`, the file the text is for, and naming
    where in `obj` the value sits."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=sort_keys, allow_nan=False) + "\n"
    except ValueError as exc:
        found = _non_finite_at(obj)
        if found is None:
            raise ValueError(f"{path}: {exc}") from exc
        raise ValueError(f"{path}: {found[0] or 'the value'} is {found[1]!r}, "
                         "not a finite number") from exc


def write_json(path: str, obj, indent=None, sort_keys: bool = False) -> None:
    """Write `json_text(path, obj, indent, sort_keys)` to `path`, atomically."""
    atomic_write_text(path, json_text(path, obj, indent, sort_keys))


class _RepeatedKey(ValueError):
    pass


def _unique_keys(pairs: list) -> dict:
    """The JSON object of `pairs`; a key that repeats raises _RepeatedKey
    naming it, where `json.load` alone would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise _RepeatedKey(f"key {key!r} repeats in one object")
    return obj


def read_json(path: str):
    """The parsed UTF-8 JSON text of `path`; a decoding or syntax error, or
    a key repeated within an object, raises ValueError starting with the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except _RepeatedKey as exc:
            raise ValueError(f"{path}: {exc}") from exc
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


def json_known_keys(obj: dict, known, where: str) -> dict:
    """`obj` when each of its keys is in `known`, else ValueError naming
    `where` and each unknown key with its value."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        shown = ", ".join(f"{k!r}: {obj[k]!r:.60}" for k in unknown)
        raise ValueError(f"{where}: unknown keys {{{shown}}}")
    return obj
