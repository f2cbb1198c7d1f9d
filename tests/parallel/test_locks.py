"""File locks and atomic publication."""

from __future__ import annotations

import fcntl
import multiprocessing
import os

import pytest

from repro.parallel import FileLock, artifact_lock, atomic_write


class TestAtomicWrite:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target) as tmp:
            tmp.write_bytes(b"hello")
            assert not target.exists()  # nothing published mid-write
        assert target.read_bytes() == b"hello"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_failure_preserves_existing(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"original")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(target) as tmp:
                tmp.write_bytes(b"partial")
                raise RuntimeError("crash mid-write")
        assert target.read_bytes() == b"original"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_without_existing_leaves_nothing(self, tmp_path):
        target = tmp_path / "fresh.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(target):
                raise RuntimeError("crash")
        assert list(tmp_path.iterdir()) == []


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            assert lock.held
        assert not lock.held
        with lock:  # reacquirable after release
            assert lock.held

    def test_double_acquire_raises(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()

    def test_held_lock_refuses_a_second_descriptor(self, tmp_path):
        path = tmp_path / "x.lock"
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            with FileLock(path):
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # free once released
        finally:
            os.close(fd)

    def test_artifact_lock_sibling_path(self, tmp_path):
        lock = artifact_lock(tmp_path / "model.npz")
        assert lock.path == tmp_path / "model.npz.lock"


def _locked_increment(args):
    lock_path, counter_path, n = args
    for _ in range(n):
        with FileLock(lock_path):
            value = int(counter_path.read_text()) if counter_path.exists() else 0
            counter_path.write_text(str(value + 1))
    return os.getpid()


class TestMutualExclusion:
    def test_two_processes_never_interleave(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        lock_path = tmp_path / "counter.lock"
        counter_path = tmp_path / "counter.txt"
        n = 25
        procs = [
            ctx.Process(target=_locked_increment, args=((lock_path, counter_path, n),))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # The read-modify-write is not atomic; only the lock keeps both
        # processes from losing increments.
        assert int(counter_path.read_text()) == 2 * n
