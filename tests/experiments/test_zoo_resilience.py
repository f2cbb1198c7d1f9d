"""Zoo fault tolerance: safe corrupt-archive unlinking, degraded builds
with dependency skips, recovery by re-running, and chaos contention."""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.experiments import SMOKE, ZooSpec
from repro.experiments import zoo
from repro.pruning import PruneRun
from repro.resilience import chaos
from repro.resilience.failures import KIND_DEPENDENCY, KIND_EXCEPTION
from repro.utils.serialization import save_state

MICRO = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=1,
)

SPEC = ZooSpec("cifar", "resnet20", "wt", 0)


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    """Each test controls its own fault plan: clear any ambient
    ``REPRO_CHAOS`` (the nightly chaos job exports one) and never leak
    a configured plan to the next test."""
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()
    yield
    chaos.disable()


class TestUnlinkUnderLockOnly:
    """Regression: the lock-free fast path must never unlink a corrupt
    archive — the corrupt read races a concurrent publisher's atomic
    ``os.replace``, so the unlink can destroy the *fresh* archive."""

    def test_load_cached_state_default_keeps_corrupt_file(self, tmp_path):
        path = tmp_path / "artifact.npz"
        path.write_bytes(b"garbage, not an npz archive")
        assert zoo._load_cached_state(path) is None
        assert path.exists()  # fast path: miss reported, file untouched

    def test_load_cached_state_unlinks_when_told(self, tmp_path):
        path = tmp_path / "artifact.npz"
        path.write_bytes(b"garbage, not an npz archive")
        assert zoo._load_cached_state(path, unlink_corrupt=True) is None
        assert not path.exists()  # lock-held path may clear the way

    def test_load_cached_state_valid_archive_survives_both_modes(self, tmp_path):
        import numpy as np

        path = tmp_path / "artifact.npz"
        save_state(path, {"w": np.arange(3.0)}, {"spec": "x"})
        assert zoo._load_cached_state(path, unlink_corrupt=True) is not None
        assert path.exists()

    def test_load_cached_run_default_keeps_corrupt_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        zoo.get_prune_run(SPEC, MICRO)
        path = zoo.artifact_path(SPEC, MICRO)
        path.write_bytes(path.read_bytes()[:64])  # truncate: corrupt
        assert zoo._load_cached_run(path) is None
        assert path.exists()
        assert zoo._load_cached_run(path, unlink_corrupt=True) is None
        assert not path.exists()


class TestDegradedBuild:
    def test_dead_parent_skips_dependants_and_persists_manifest(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Kill every parent cell deterministically; prune cells must be
        # skipped as dependency failures, not retrained inline.
        chaos.configure(exception_rate=1.0, seed=5, only_keys=("-parent-",))
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        timing = zoo.build_zoo(specs, MICRO, jobs=1, on_error="collect", max_retries=0)
        chaos.disable()

        assert timing.degraded
        assert "FAILED" in timing.summary()
        by_kind = {}
        for f in timing.failures:
            by_kind.setdefault(f.kind, []).append(f)
        assert len(by_kind[KIND_EXCEPTION]) == 1  # the parent cell
        assert by_kind[KIND_EXCEPTION][0].error_type == "ChaosError"
        assert len(by_kind[KIND_DEPENDENCY]) == 2  # both prune methods
        for f in by_kind[KIND_DEPENDENCY]:
            assert "parent cell" in f.message and f.attempts == 0
        # No artifact was trained, and no cell pretended to succeed.
        assert not list(tmp_path.glob("*.npz"))
        assert timing.cells == []

        # One manifest, the post-mortem record of every failure.
        assert list(tmp_path.glob("failures-*.json")) == [Path(timing.manifest_path)]
        manifest = json.loads(Path(timing.manifest_path).read_text())
        assert manifest["label"] == "build_zoo"
        assert len(manifest["failures"]) == 3
        assert manifest["total_cells"] == 3

    def test_resume_recomputes_exactly_the_failed_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        chaos.configure(exception_rate=1.0, seed=5, only_keys=("-ft-",))
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        degraded = zoo.build_zoo(
            specs, MICRO, jobs=1, on_error="collect", max_retries=0
        )
        chaos.disable()

        # Parent and wt survived and were published; only ft died.
        assert [f.key for f in degraded.failures] == [
            ZooSpec("cifar", "resnet20", "ft", 0).key(MICRO)
        ]
        assert len(list(tmp_path.glob("*.npz"))) == 2

        trainings = []
        real_prune = zoo._train_prune_run
        monkeypatch.setattr(
            zoo,
            "_train_prune_run",
            lambda spec, scale: trainings.append(spec) or real_prune(spec, scale),
        )
        # Re-run the same build with chaos off.
        rerun = zoo.build_zoo(specs, MICRO, jobs=1)
        assert not rerun.degraded
        # Only the ft cell was retrained; parent and wt were cache hits.
        assert [s.method_name for s in trainings] == ["ft"]
        parent_cell, wt_cell, ft_cell = rerun.cells
        assert parent_cell.cached and wt_cell.cached and not ft_cell.cached
        assert len(list(tmp_path.glob("*.npz"))) == 3
        PruneRun.load(zoo.artifact_path(ZooSpec("cifar", "resnet20", "ft", 0), MICRO))
        # The clean re-run wrote no manifest of its own.
        assert list(tmp_path.glob("failures-*.json")) == [Path(degraded.manifest_path)]


def _append_line(path, line: str) -> None:
    """O_APPEND write: atomic for short lines, safe across processes."""
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)


def _contention_worker(barrier, log_path):
    """Race the siblings onto one truncated prune artifact."""
    barrier.wait(timeout=60)
    run = zoo.get_prune_run(SPEC, MICRO)
    _append_line(log_path, f"ok:{run.parent_test_error}")


class TestChaosContention:
    def test_racing_builders_converge_on_one_retrain(self, tmp_path, monkeypatch):
        """Satellite: N concurrent builders race one truncated artifact
        while chaos holds every acquired lock; they must converge to
        exactly one retraining run and one valid archive."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        zoo.get_prune_run(SPEC, MICRO)  # valid build, then tear it
        path = zoo.artifact_path(SPEC, MICRO)
        chaos.tear_file(path)

        train_log = tmp_path / "train.log"
        real_parent, real_prune = zoo._train_parent, zoo._train_prune_run

        def counting_parent(spec, scale):
            _append_line(train_log, f"parent:{spec.key(scale)}")
            return real_parent(spec, scale)

        def counting_prune(spec, scale):
            _append_line(train_log, f"prune:{spec.key(scale)}")
            return real_prune(spec, scale)

        monkeypatch.setattr(zoo, "_train_parent", counting_parent)
        monkeypatch.setattr(zoo, "_train_prune_run", counting_prune)

        # Lock starvation widens the window between the corrupt fast-path
        # read and the under-lock re-check; forked children inherit the
        # exported REPRO_CHAOS plan with fresh per-key counters.
        chaos.configure(lock_hold_rate=1.0, lock_hold_seconds=0.1, seed=3)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        procs = [
            ctx.Process(target=_contention_worker, args=(barrier, train_log))
            for _ in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=180)
            assert p.exitcode == 0
        chaos.disable()

        lines = train_log.read_text().splitlines()
        # The torn prune artifact was retrained exactly once; the parent
        # (still valid on disk) was never retrained.
        assert len([l for l in lines if l.startswith("prune:")]) == 1
        assert len([l for l in lines if l.startswith("parent:")]) == 0
        # All racers observed one identical, valid archive.
        oks = [l for l in lines if l.startswith("ok:")]
        assert len(oks) == 3 and len(set(oks)) == 1
        PruneRun.load(path)
