"""Cache coordination: per-artifact file locks and atomic publication.

Concurrent zoo workers (several processes racing on the same cached
artifact) need two guarantees:

- **mutual exclusion** while an artifact is being trained, so the same
  (task, model, method, repetition) is never trained twice — provided by
  :class:`FileLock`, an advisory inter-process ``fcntl.flock`` lock that
  the kernel releases when its holder dies, so a killed build leaves no
  lock behind;
- **atomic publication**, so a reader never observes a half-written
  archive — provided by :func:`atomic_write`, which stages writes to a
  temporary file in the destination directory and promotes it with
  ``os.replace`` (atomic on POSIX within one filesystem).
"""

from __future__ import annotations

import fcntl
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class FileLock:
    """Advisory inter-process lock on a filesystem path.

    Not reentrant.  :meth:`acquire` blocks until the lock is free.  The
    lock file itself is left in place after release (unlinking a lock
    file while another process holds its descriptor re-introduces the
    race the lock exists to prevent); lock files are zero-byte
    ``*.lock`` siblings of the artifact they guard.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "FileLock":
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} already held by this object")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        # Fault injection: may hold the freshly acquired lock to starve
        # concurrent waiters (no-op unless chaos is enabled).  Imported
        # lazily — chaos pulls in repro.observe, which must stay
        # importable before this module finishes loading.
        from repro.resilience import chaos

        chaos.on_lock_acquired(self.path)
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def artifact_lock(path: str | Path) -> FileLock:
    """The lock guarding one cached artifact (a ``.lock`` sibling of it)."""
    path = Path(path)
    return FileLock(path.with_name(path.name + ".lock"))


def fsync_path(path: str | Path) -> None:
    """Flush ``path``'s contents to stable storage (no-op if unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without file fsync access
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without fsync support
        pass
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """Flush a directory entry table to stable storage.

    After ``os.replace`` promotes an artifact, the *data* is durable once
    the file was fsynced — but the rename itself lives in the parent
    directory, which has its own write-back cache.  Without this second
    fsync a power loss can resurface the old name (or no name at all)
    even though the publish "succeeded".  Directories cannot be opened
    for reading on some platforms (Windows); there this is a no-op.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, durable: bool = True) -> Iterator[Path]:
    """Yield a temporary path that is atomically promoted to ``path``.

    The temporary file lives in the destination directory so the final
    ``os.replace`` never crosses filesystems.  On any error the temp file
    is removed and ``path`` is left exactly as it was.

    With ``durable=True`` (the default) the staged file is fsynced before
    the rename and the parent directory is fsynced after it, so a
    successfully published artifact or manifest survives power loss
    — not just process crash.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        if durable:
            fsync_path(tmp)
        os.replace(tmp, path)
        if durable:
            fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
