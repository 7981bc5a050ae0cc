"""Atomic file output shared by every writer."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file in the same directory, then rename
    it over ``path``, so a failure part-way leaves any earlier file intact
    and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
