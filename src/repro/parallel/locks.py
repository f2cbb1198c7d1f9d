"""Cache coordination: per-artifact file locks and atomic publication.

Concurrent zoo workers (several processes racing on the same cached
artifact) need two guarantees:

- **mutual exclusion** while an artifact is being trained, so the same
  (task, model, method, repetition) is never trained twice — provided by
  :class:`FileLock`, an advisory inter-process lock backed by
  ``fcntl.flock`` where available (released by the kernel even if the
  holder crashes) with an ``O_EXCL`` spin-lock fallback elsewhere;
- **atomic publication**, so a reader never observes a half-written
  archive — provided by :func:`atomic_write`, which stages writes to a
  temporary file in the destination directory and promotes it with
  ``os.replace`` (atomic on POSIX within one filesystem).
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - platform probe
    import fcntl

    _HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    _HAVE_FLOCK = False


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time."""


class FileLock:
    """Advisory inter-process lock on a filesystem path.

    Not reentrant.  The lock file itself is left in place after release
    (unlinking a lock file while another process holds its descriptor
    re-introduces the race the lock exists to prevent); lock files are
    zero-byte ``*.lock`` siblings of the artifact they guard.
    """

    def __init__(
        self,
        path: str | Path,
        timeout: float | None = None,
        poll_interval: float = 0.05,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "FileLock":
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} already held by this object")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        if _HAVE_FLOCK:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if deadline is not None and time.monotonic() >= deadline:
                        os.close(fd)
                        raise LockTimeout(f"timed out waiting for {self.path}")
                    time.sleep(self.poll_interval)
            self._fd = fd
        else:  # pragma: no cover - exercised only on non-POSIX platforms
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    break
                except FileExistsError:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise LockTimeout(f"timed out waiting for {self.path}")
                    time.sleep(self.poll_interval)
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
        if _HAVE_FLOCK:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:  # pragma: no cover
            os.close(fd)
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def artifact_lock(path: str | Path, timeout: float | None = None) -> FileLock:
    """The lock guarding one cached artifact (a ``.lock`` sibling of it)."""
    path = Path(path)
    return FileLock(path.with_name(path.name + ".lock"), timeout=timeout)


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
