"""Concurrent zoo builders: one training run per artifact, corrupt = miss."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro import observe
from repro.experiments import SMOKE, ZooSpec
from repro.experiments import zoo
from repro.observe import load_report
from repro.utils.serialization import load_state, save_state

MICRO = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=1,
)

SPEC = ZooSpec("cifar", "resnet20", "wt", 0)


def _append_line(path, line: str) -> None:
    """O_APPEND write: atomic for short lines, safe across processes."""
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)


def _racing_worker(barrier, out_path):
    """Grab the same prune run as the sibling process and dump its states."""
    barrier.wait(timeout=60)
    run = zoo.get_prune_run(SPEC, MICRO)
    arrays = {f"parent/{k}": v for k, v in run.parent_state.items()}
    arrays.update({f"ckpt0/{k}": v for k, v in run.checkpoints[0].state.items()})
    save_state(out_path, arrays, {"parent_test_error": run.parent_test_error})


class TestRacingBuilders:
    def test_single_training_run_and_identical_states(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        train_log = tmp_path / "train.log"

        real_parent, real_prune = zoo._train_parent, zoo._train_prune_run

        def counting_parent(spec, scale):
            _append_line(train_log, f"parent:{spec.key(scale)}")
            return real_parent(spec, scale)

        def counting_prune(spec, scale):
            _append_line(train_log, f"prune:{spec.key(scale)}")
            return real_prune(spec, scale)

        # Forked children inherit the instrumented module.
        monkeypatch.setattr(zoo, "_train_parent", counting_parent)
        monkeypatch.setattr(zoo, "_train_prune_run", counting_prune)

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        outs = [tmp_path / "a.npz", tmp_path / "b.npz"]
        procs = [
            ctx.Process(target=_racing_worker, args=(barrier, out)) for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=180)
            assert p.exitcode == 0

        # Exactly one training run per artifact across both processes.
        lines = train_log.read_text().splitlines()
        assert len([l for l in lines if l.startswith("parent:")]) == 1
        assert len([l for l in lines if l.startswith("prune:")]) == 1

        # Both racers observed the same artifact, bit for bit.
        arrays_a, meta_a = load_state(outs[0])
        arrays_b, meta_b = load_state(outs[1])
        assert meta_a == meta_b
        assert sorted(arrays_a) == sorted(arrays_b)
        for key in arrays_a:
            np.testing.assert_array_equal(arrays_a[key], arrays_b[key])


class TestCorruptArtifactRecovery:
    def test_corrupt_parent_is_retrained(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        parent_spec = ZooSpec("cifar", "resnet20", None, 0)
        path = zoo.artifact_path(parent_spec, MICRO)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage, not an npz archive")

        trainings = []
        real_train = zoo._train_parent
        monkeypatch.setattr(
            zoo,
            "_train_parent",
            lambda spec, scale: trainings.append(spec) or real_train(spec, scale),
        )
        state = zoo.get_parent_state(parent_spec, MICRO)
        assert len(trainings) == 1  # corrupt archive counted as a miss
        assert state  # and a fresh artifact was produced
        arrays, _ = load_state(path)  # now valid on disk
        assert sorted(arrays) == sorted(state)

        # Second call: straight cache hit, no retraining.
        zoo.get_parent_state(parent_spec, MICRO)
        assert len(trainings) == 1

    def test_corrupt_prune_run_is_retrained(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run1 = zoo.get_prune_run(SPEC, MICRO)
        path = zoo.artifact_path(SPEC, MICRO)
        path.write_bytes(path.read_bytes()[:64])  # truncate: corrupt archive

        run2 = zoo.get_prune_run(SPEC, MICRO)
        np.testing.assert_allclose(run1.ratios, run2.ratios)
        np.testing.assert_allclose(run1.test_errors, run2.test_errors)
        for key in run1.parent_state:
            np.testing.assert_array_equal(run1.parent_state[key], run2.parent_state[key])

    def test_rebuilt_artifact_is_a_cache_miss(self, tmp_path, monkeypatch):
        """A cell whose torn artifact is rebuilt counts as a miss, in the
        ledger and in its timing; the untouched cells are hits."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "zoo"))
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        zoo.build_zoo(specs, MICRO, jobs=1)
        torn = zoo.artifact_path(SPEC, MICRO)
        torn.write_bytes(torn.read_bytes()[:64])

        ledger = observe.configure(dir=tmp_path / "obs")
        try:
            timing = zoo.build_zoo(specs, MICRO, jobs=1)
        finally:
            observe.shutdown()
        counters = load_report(ledger).counters
        assert counters.get("zoo.cache_miss", 0) == 1
        assert counters.get("zoo.cache_hit", 0) == len(timing.cells) - 1 == 2
        cached = {cell.key: cell.cached for cell in timing.cells}
        assert cached.pop(SPEC.key(MICRO)) is False
        assert all(cached.values())


class TestBuildZoo:
    def test_dependency_aware_fanout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        timing = zoo.build_zoo(specs, MICRO, jobs=2)
        # 1 shared parent + 2 prune runs; parent listed (and built) first.
        assert len(timing.cells) == 3
        assert "parent" in timing.cells[0].key
        assert not any(c.cached for c in timing.cells)
        assert len(list(tmp_path.glob("*.npz"))) == 3

        again = zoo.build_zoo(specs, MICRO, jobs=1)
        assert all(c.cached for c in again.cells)

    def test_jobs_equivalence(self, tmp_path, monkeypatch):
        """jobs=1 and jobs=2 produce identical artifact keys and contents."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        zoo.build_zoo([SPEC], MICRO, jobs=1)
        serial = {p.name: p for p in (tmp_path / "serial").glob("*.npz")}

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        zoo.build_zoo([SPEC], MICRO, jobs=2)
        par = {p.name: p for p in (tmp_path / "parallel").glob("*.npz")}

        assert sorted(serial) == sorted(par)  # identical artifact keys
        for name in serial:
            a, _ = load_state(serial[name])
            b, _ = load_state(par[name])
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])


class TestExperimentJobsEquivalence:
    def test_parallel_grid_matches_serial(self, tmp_path, monkeypatch):
        """Experiment results are identical regardless of the worker count."""
        from repro.experiments.corruption_study import corruption_potential_experiment

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corruptions = ["gaussian_noise", "brightness"]
        serial = corruption_potential_experiment(
            "cifar", "resnet20", "wt", MICRO, corruptions=corruptions, jobs=1
        )
        corruption_potential_experiment.cache_clear()
        parallel = corruption_potential_experiment(
            "cifar", "resnet20", "wt", MICRO, corruptions=corruptions, jobs=2
        )
        corruption_potential_experiment.cache_clear()

        assert serial.distributions == parallel.distributions
        np.testing.assert_array_equal(serial.potentials, parallel.potentials)
        for name in serial.distributions:
            for c_serial, c_parallel in zip(serial.curves[name], parallel.curves[name]):
                np.testing.assert_array_equal(c_serial.errors, c_parallel.errors)
                assert c_serial.parent_error == c_parallel.parent_error
        assert parallel.timing is not None and parallel.timing.jobs == 2
