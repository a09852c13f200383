"""Atomic file writes shared by every module that persists artifacts.

Each payload goes to `<path>.tmp` and is renamed over `path`, so a reader
never sees a half-written file.
"""

from __future__ import annotations

import os


def atomic_write_bytes(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path: str, payload: str) -> None:
    atomic_write_bytes(path, payload.encode())
