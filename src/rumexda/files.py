"""Text file input and atomic output shared by every reader and writer."""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


@contextmanager
def replacing(path):
    """A binary file to write in place of ``path``: a temporary file in the
    same directory, renamed over ``path`` when the block ends without an
    error, so a failure part-way leaves any earlier file intact and no
    temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data``, as UTF-8 if it is text, through ``replacing``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    with replacing(path) as fh:
        fh.write(data)


def csv_text(rows) -> str:
    r"""CSV text of ``rows``, a sequence of rows, with "\n" line ends and
    minimal quoting. Minimal quoting leaves a bare "\r" in a field, which reads
    back as a line end, because only the line terminator's characters are
    quoted; text that holds a "\r" is written again with every field quoted."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
        text = buf.getvalue()
        if "\r" not in text:
            break
    return text


@contextmanager
def open_text(path, newline=None):
    """Open ``path`` for reading UTF-8 text. A byte sequence that does not
    decode raises ``DataError`` naming the path and the line it is on."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = raw.count(b"\n", 0, whole.start) + 1
            raise DataError(f"{path}:{line}: not UTF-8 text: {whole.reason}") from exc
        raise


def read_text(path) -> str:
    """The whole of a UTF-8 text file, read through ``open_text``."""
    with open_text(path) as fh:
        return fh.read()


def csv_rows(path):
    """(line, row) for each row of a UTF-8 CSV file read through
    ``open_text``, where ``line`` is the line the row ends on. A row the csv
    module rejects, such as one with a field over its size limit, raises
    ``DataError`` naming the path and line."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
