"""File I/O, free of numpy so that every command can use it.

Writes are durable and atomic: data goes to a unique temp file in the
target directory, is flushed to disk and renamed over the target, and the
directory is flushed after the rename, so a failed write never leaves a
partial file behind, a crash after it cannot lose the rename, and
concurrent writers never share a temp file. ``atomic_writer`` takes the
data in pieces, so a caller can stream a file it never holds whole; a
failure while the pieces are made leaves the target as it was, too.
Reads decode UTF-8 and report a file that is not UTF-8 as the reader's
own named error.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# mkstemp creates its file 0600; give the output the mode open() would.
_UMASK = os.umask(0)
os.umask(_UMASK)


@contextmanager
def _named(path: Path) -> Iterator[None]:
    """Name ``path``, not the temp file, in an OSError."""
    try:
        yield
    except OSError as err:
        raise type(err)(err.errno, err.strerror, str(path)) from None


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[Callable[[bytes], None]]:
    """A ``write(data)`` function whose pieces replace ``path`` together
    when the block ends without an error; an error raised in the block
    passes through as it is, and the temp file is removed."""
    path = Path(path)
    with _named(path):
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                   dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            def write(data: bytes) -> None:
                with _named(path):
                    f.write(data)

            yield write
            with _named(path):
                f.flush()
                os.fsync(f.fileno())
        with _named(path):
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    with _named(path):  # the rename is durable once its directory is
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as write:
        write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ``error`` naming
    the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: {err}") from None
