"""Durable, atomic file writes, free of numpy so that every command can use
them. Data goes to a unique temp file in the target directory, is flushed
to disk and renamed over the target, so a failed write never leaves a
partial file behind and concurrent writers never share a temp file.
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
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
