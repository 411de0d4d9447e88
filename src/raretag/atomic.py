"""File I/O, free of numpy so that every command can use it.

Writes are durable and atomic: data goes to a unique temp file in the
target directory, is flushed to disk and renamed over the target, so a
failed write never leaves a partial file behind and concurrent writers
never share a temp file. Reads decode UTF-8 and report a file that is not
UTF-8 as the reader's own named error.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

# mkstemp creates its file 0600; give the output the mode open() would.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                   dir=path.parent)
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(err, OSError):  # name path, not the temp file
            raise type(err)(err.errno, err.strerror, str(path)) from None
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ``error`` naming
    the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: {err}") from None
