"""Atomic file writes shared by every module that persists artifacts.

Each payload goes to `<path>.tmp` and is renamed over `path`, so a reader
never sees a half-written file. A payload may come in several chunks (say a
header and an array body), written in turn so none is copied into a joined
bytes object.
"""

from __future__ import annotations

import os


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` back to back to `path`, atomically."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def atomic_write_text(path: str, payload: str) -> None:
    atomic_write_bytes(path, payload.encode())
