"""The grid scope: one evaluation grid loads each zoo artifact and builds
each eval model once, shares them read-only, and keeps nothing after it
returns; corrupt archives are loud cache misses.  A grid whose zoo lost a
repetition skips that repetition's cells and keeps the others intact.
Potential grids are checkpoint-outer: a cell evaluates a block of
distributions and swaps each checkpoint into its model once."""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.pruning.pipeline as pipeline
from repro import observe
from repro.analysis.prune_potential import evaluate_curve
from repro.experiments import SMOKE, ZooSpec, build_zoo
from repro.experiments import zoo
from repro.experiments.corruption_study import (
    _distribution_dataset,
    corruption_potential_experiment,
    severity_sweep_experiment,
)
from repro.experiments.grid import distribution_blocks
from repro.experiments.noise_study import noise_potential_experiment, noisy_test_set
from repro.experiments.prune_curves import _rep_cell, prune_curve_experiment
from repro.infer.plan import CompiledPlan
from repro.nn.module import Module
from repro.observe import load_report
from repro.resilience import chaos
from repro.utils.serialization import save_state

MICRO = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=2,
    noise_levels=(0.0, 0.3),
)
CORRUPTIONS = ("gaussian_noise", "jpeg")
SEVERITIES = (1, 4)
SPECS = [ZooSpec("cifar", "resnet20", "wt", rep) for rep in range(MICRO.n_repetitions)]
SPEC = SPECS[0]

JOBS = [1, 2]


@pytest.fixture(scope="module")
def zoo_cache(tmp_path_factory):
    """A built MICRO zoo (two repetitions) in an isolated cache."""
    cache = tmp_path_factory.mktemp("zoo")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    build_zoo(SPECS, MICRO, jobs=1)
    yield cache
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class CallLog:
    """``pid name`` lines appended by every process (O_APPEND is atomic)."""

    def __init__(self, path: Path):
        self.path = path

    def write(self, kind: str, name: str) -> None:
        fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, f"{kind} {os.getpid()} {name}\n".encode())
        finally:
            os.close(fd)

    def calls(self, kind: str) -> list[tuple[str, str]]:
        if not self.path.exists():
            return []
        rows = [line.split(" ", 2) for line in self.path.read_text().splitlines()]
        return [(pid, name) for k, pid, name in rows if k == kind]

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


@pytest.fixture
def calls(zoo_cache, tmp_path, monkeypatch):
    """Record every ``load_state`` and ``make_model`` call, in any process."""
    log = CallLog(tmp_path / "calls.log")
    real_load, real_make = zoo.load_state, zoo.make_model

    def load_state(path):
        log.write("load", Path(path).name)
        return real_load(path)

    def make_model(spec, suite, scale):
        log.write("model", spec.key(scale))
        return real_make(spec, suite, scale)

    monkeypatch.setattr(zoo, "load_state", load_state)
    monkeypatch.setattr(pipeline, "load_state", load_state)
    monkeypatch.setattr(zoo, "make_model", make_model)
    yield log
    assert zoo._SCOPE is None


def corruption_grid(jobs, corruptions=CORRUPTIONS):
    corruption_potential_experiment.cache_clear()
    return corruption_potential_experiment(
        "cifar", "resnet20", "wt", MICRO, corruptions=corruptions, jobs=jobs
    )


def artifact_names():
    return {
        zoo.artifact_path(s, MICRO).name for spec in SPECS
        for s in (spec, ZooSpec("cifar", "resnet20", None, spec.repetition))
    }


class TestOneLoadPerGrid:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_each_artifact_and_model_once_per_process(self, calls, jobs):
        # Every corruption: enough cells that each pool task runs several.
        result = corruption_grid(jobs, corruptions=None)
        assert not np.isnan(result.potentials).any()
        cells = result.potentials.size
        loads, models = calls.calls("load"), calls.calls("model")
        assert set(Counter(loads).values()) == {1}
        assert set(Counter(models).values()) == {1}
        assert {name for _, name in loads} == artifact_names()
        assert {name for _, name in models} == {s.key(MICRO) for s in SPECS}
        assert len(models) < cells
        if jobs == 1:
            assert len(loads) == len(artifact_names())
            assert len(models) == len(SPECS)

    def test_nothing_survives_the_grid(self, calls):
        corruption_grid(1)
        first = sorted(calls.calls("load"))
        assert zoo._SCOPE is None
        calls.clear()
        corruption_grid(1)
        assert sorted(calls.calls("load")) == first


def unscoped_curve(rep, dataset, normalize=True):
    """One distribution evaluated on its own, on a fresh model, outside
    any grid scope."""
    assert zoo._SCOPE is None
    spec = ZooSpec("cifar", "resnet20", "wt", rep)
    suite = zoo.cached_suite("cifar", MICRO)
    model = zoo.make_model(spec, suite, MICRO)
    normalizer = suite.normalizer() if normalize else None
    [curve] = evaluate_curve(zoo.get_prune_run(spec, MICRO), model, [dataset], normalizer)
    return curve


def distribution(dist_spec):
    return _distribution_dataset(zoo.cached_suite("cifar", MICRO), dist_spec)


class TestBitwiseEqualToUnscopedCells:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_corruption(self, zoo_cache, jobs):
        result = corruption_grid(jobs)
        for name in result.distributions:
            dist_spec = ("corruption", name, MICRO.severity)
            if name in ("nominal", "shifted"):
                dist_spec = (name,)
            for rep in range(MICRO.n_repetitions):
                got, want = result.curves[name][rep], unscoped_curve(rep, distribution(dist_spec))
                np.testing.assert_array_equal(got.errors, want.errors)
                assert got.parent_error == want.parent_error

    @pytest.mark.parametrize("jobs", JOBS)
    def test_severity(self, zoo_cache, jobs):
        severity_sweep_experiment.cache_clear()
        result = severity_sweep_experiment(
            "cifar", "resnet20", "wt", MICRO, severities=SEVERITIES, jobs=jobs
        )
        want = [
            [
                unscoped_curve(
                    rep, distribution(("corruption", "gaussian_noise", s))
                ).potential(MICRO.delta)
                for s in SEVERITIES
            ]
            for rep in range(MICRO.n_repetitions)
        ]
        np.testing.assert_array_equal(result.potentials, want)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_noise(self, zoo_cache, jobs):
        result = noise_potential_experiment("cifar", "resnet20", "wt", MICRO, jobs=jobs)
        suite = zoo.cached_suite("cifar", MICRO)
        want = [
            [
                unscoped_curve(
                    rep, noisy_test_set(suite, MICRO, rep, li), normalize=False
                ).potential(MICRO.delta)
                for li in range(len(MICRO.noise_levels))
            ]
            for rep in range(MICRO.n_repetitions)
        ]
        np.testing.assert_array_equal(result.potentials, want)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_prune_curve(self, zoo_cache, jobs):
        result = prune_curve(jobs)
        cells = [_rep_cell(("cifar", "resnet20", "wt", MICRO, False, rep)) for rep in range(2)]
        np.testing.assert_array_equal(result.ratios, np.mean([c[0] for c in cells], axis=0))
        np.testing.assert_array_equal(result.errors, [c[1] for c in cells])
        np.testing.assert_array_equal(result.parent_errors, [c[2] for c in cells])
        np.testing.assert_array_equal(result.flop_reductions, [c[3] for c in cells])


class TestDistributionBlocks:
    NAMES = ["a", "b", "c", "d", "e"]

    def blocks(self, n_repetitions, jobs, names=NAMES):
        return [(rep, names[block], key) for rep, block, key in
                distribution_blocks(names, n_repetitions, jobs)]

    def test_one_block_per_repetition_at_one_job(self):
        assert self.blocks(2, 1) == [
            (0, self.NAMES, "rep0/a..e"), (1, self.NAMES, "rep1/a..e"),
        ]

    @pytest.mark.parametrize(
        "n_repetitions, jobs, per_rep",
        [(2, 2, 1), (3, 2, 2), (2, 4, 2), (1, 3, 3), (3, 6, 2), (4, 6, 3)],
    )
    def test_fewest_cells_that_divide_among_the_workers(self, n_repetitions, jobs, per_rep):
        cells = self.blocks(n_repetitions, jobs)
        assert len(cells) == n_repetitions * per_rep
        assert len(cells) % jobs == 0
        for rep in range(n_repetitions):
            blocks = [names for r, names, _ in cells if r == rep]
            assert sum(blocks, []) == self.NAMES  # contiguous, in order
            assert max(map(len, blocks)) - min(map(len, blocks)) <= 1

    def test_keys(self):
        assert [key for _, _, key in self.blocks(1, 3)] == [
            "rep0/a..b", "rep0/c..d", "rep0/e",
        ]

    def test_never_more_blocks_than_names(self):
        assert self.blocks(1, 4, names=["a", "b"]) == [(0, ["a"], "rep0/a"), (0, ["b"], "rep0/b")]
        assert self.blocks(2, 1, names=[]) == []

    def test_jobs_resolve_like_parallel_map(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        assert len(self.blocks(1, None)) == 2
        monkeypatch.setenv("REPRO_NUM_WORKERS", "0")  # all CPUs
        assert len(self.blocks(1, None)) == min(len(self.NAMES), os.cpu_count() or 1)


class TestCheckpointOuter:
    def test_each_state_swapped_in_once_per_cell(self, zoo_cache, monkeypatch, state_hashes):
        counts = Counter()
        real_refresh, real_load = CompiledPlan.refresh, Module.load_state_dict

        def refresh(plan, model):
            counts["refresh"] += 1
            return real_refresh(plan, model)

        def load_state_dict(model, state):
            counts["load"] += 1
            return real_load(model, state)

        monkeypatch.setattr(CompiledPlan, "refresh", refresh)
        monkeypatch.setattr(Module, "load_state_dict", load_state_dict)
        result = corruption_grid(1)
        assert result.potentials.shape == (2, 4)
        # Per repetition: the parent and one checkpoint each refresh the
        # plan once for all 4 distributions; the cell then restores its
        # model's state with a third load.
        assert counts == {"refresh": 4, "load": 6}
        # The scoped model is sealed, so each state swapped in is hashed
        # once, not once per distribution.
        assert len(state_hashes) == 4

    def test_dead_block_leaves_nan_for_its_distributions_only(self, chaos_off):
        clean = corruption_grid(1)
        chaos.configure(exception_rate=1.0, only_keys=("rep1/nominal",))
        try:
            # 4 workers for 2 repetitions: two blocks of two per repetition.
            result = corruption_potential_experiment(
                "cifar", "resnet20", "wt", MICRO, corruptions=CORRUPTIONS, jobs=4,
                on_error="collect", max_retries=0,
            )
        finally:
            chaos.disable()
        assert [f.key for f in result.timing.failures] == ["rep1/nominal..shifted"]
        assert np.isnan(result.potentials[1, :2]).all()
        np.testing.assert_array_equal(result.potentials[1, 2:], clean.potentials[1, 2:])
        np.testing.assert_array_equal(result.potentials[0], clean.potentials[0])
        assert result.curves["nominal"][1] is None and result.curves["shifted"][1] is None
        assert result.curves["jpeg"][1] is not None


class TestBadDistributionFailsFast:
    """A distribution that cannot be built raises in the caller, before
    the zoo probe or any cell runs, and leaves no manifest behind."""

    def manifests(self, cache):
        return set(cache.glob("failures-*.json"))

    def test_unknown_corruption(self, zoo_cache):
        before = self.manifests(zoo_cache)
        corruption_potential_experiment.cache_clear()
        with pytest.raises(KeyError, match="no_such"):
            corruption_potential_experiment(
                "cifar", "resnet20", "wt", MICRO, corruptions=("no_such",), on_error="collect"
            )
        assert self.manifests(zoo_cache) == before

    def test_bad_severity(self, zoo_cache):
        before = self.manifests(zoo_cache)
        severity_sweep_experiment.cache_clear()
        with pytest.raises(ValueError, match="severity"):
            severity_sweep_experiment(
                "cifar", "resnet20", "wt", MICRO, severities=(0,), on_error="collect"
            )
        assert self.manifests(zoo_cache) == before


def prune_curve(jobs, **knobs):
    prune_curve_experiment.cache_clear()
    return prune_curve_experiment("cifar", "resnet20", "wt", MICRO, jobs=jobs, **knobs)


@pytest.fixture
def chaos_off(zoo_cache, monkeypatch):
    """Chaos off, whatever the environment says."""
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()


@pytest.fixture
def rep1_dies(chaos_off, zoo_cache):
    """A context that fails every zoo cell of repetition 1 and yields the
    grid knobs to pass; chaos is off outside it.  On exit it sets
    ``manifests``, the failure manifests written inside it."""

    def manifests():
        return set(zoo_cache.glob("failures-*.json"))

    @contextlib.contextmanager
    def dead():
        before = manifests()
        chaos.configure(exception_rate=1.0, only_keys=("-rep1-",))
        try:
            yield dict(on_error="collect", max_retries=0)
        finally:
            chaos.disable()
            dead.manifests = sorted(manifests() - before)

    return dead


def assert_rep1_skipped(timing, eval_keys, manifests):
    """Repetition 1's zoo died once; each of its eval cells is one
    ``dependency`` failure, and the grid wrote one manifest (``manifests``
    are those written), whose ``total_cells`` counts both phases."""
    parent, wt = (zoo.ZooSpec("cifar", "resnet20", m, 1).key(MICRO) for m in (None, "wt"))
    kinds = {parent: "exception", wt: "dependency"}
    kinds.update((key, "dependency") for key in eval_keys)
    assert sorted(f.key for f in timing.failures) == sorted(kinds)
    assert manifests == [Path(timing.manifest_path)]
    manifest = json.loads(manifests[0].read_text())
    assert {f["key"]: f["kind"] for f in manifest["failures"]} == kinds
    assert manifest["total_cells"] == 4 + 2 * len(eval_keys)


class TestDegradedGrids:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_corruption(self, rep1_dies, jobs):
        clean = corruption_grid(jobs)
        with rep1_dies() as knobs:
            result = corruption_potential_experiment(
                "cifar", "resnet20", "wt", MICRO, corruptions=CORRUPTIONS, jobs=jobs, **knobs
            )
        assert np.isnan(result.potentials[1]).all()
        np.testing.assert_array_equal(result.potentials[0], clean.potentials[0])
        for name in result.distributions:
            assert result.curves[name][1] is None
            np.testing.assert_array_equal(result.curves[name][0].errors, clean.curves[name][0].errors)
        # One block of every distribution per repetition at jobs 1 and 2.
        assert_rep1_skipped(result.timing, ["rep1/nominal..jpeg"], rep1_dies.manifests)
        # A degraded result is not memoized: the same call, repeated with
        # chaos off, recomputes the grid instead of replaying its holes.
        again = corruption_potential_experiment(
            "cifar", "resnet20", "wt", MICRO, corruptions=CORRUPTIONS, jobs=jobs, **knobs
        )
        assert not again.timing.degraded
        np.testing.assert_array_equal(again.potentials, clean.potentials)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_noise(self, rep1_dies, jobs):
        clean = noise_potential_experiment("cifar", "resnet20", "wt", MICRO, jobs=jobs)
        with rep1_dies() as knobs:
            result = noise_potential_experiment("cifar", "resnet20", "wt", MICRO, jobs=jobs, **knobs)
        assert np.isnan(result.potentials[1]).all()
        np.testing.assert_array_equal(result.potentials[0], clean.potentials[0])
        assert_rep1_skipped(result.timing, ["rep1/noise0.00..noise0.30"], rep1_dies.manifests)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_prune_curve(self, rep1_dies, jobs):
        clean = prune_curve(jobs)
        with rep1_dies() as knobs:
            result = prune_curve(jobs, **knobs)
        assert np.isnan(result.errors[1]).all() and np.isnan(result.parent_errors[1])
        assert np.isnan(result.flop_reductions[1]).all()
        np.testing.assert_array_equal(result.errors[0], clean.errors[0])
        assert result.parent_errors[0] == clean.parent_errors[0]
        np.testing.assert_array_equal(result.flop_reductions[0], clean.flop_reductions[0])
        assert_rep1_skipped(result.timing, ["rep1"], rep1_dies.manifests)


class TestScopeSharing:
    def test_republished_artifact_reloads(self, calls):
        path = zoo.artifact_path(SPEC, MICRO)
        with zoo.grid_scope():
            run = zoo.get_prune_run(SPEC, MICRO)
            assert zoo.get_prune_run(SPEC, MICRO) is run
            assert len(calls.calls("load")) == 1
            run.save(path)  # atomic re-publish: a new inode
            again = zoo.get_prune_run(SPEC, MICRO)
            assert again is not run
            assert len(calls.calls("load")) == 2
            assert zoo.get_prune_run(SPEC, MICRO) is again

    def test_shared_arrays_are_read_only(self, zoo_cache):
        with zoo.grid_scope():
            state = zoo.get_parent_state(SPEC, MICRO)
            run = zoo.get_prune_run(SPEC, MICRO)
            for array in (next(iter(state.values())), next(iter(run.checkpoints[0].state.values()))):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        assert next(iter(zoo.get_parent_state(SPEC, MICRO).values())).flags.writeable

    def test_one_model_per_spec(self, zoo_cache):
        suite = zoo.cached_suite("cifar", MICRO)
        with zoo.grid_scope():
            model = zoo.scoped_model(SPEC, suite, MICRO)
            assert zoo.scoped_model(SPEC, suite, MICRO) is model
            assert zoo.scoped_model(SPECS[1], suite, MICRO) is not model
            with zoo.grid_scope():  # a nested scope joins the open one
                assert zoo.scoped_model(SPEC, suite, MICRO) is model
        assert zoo.scoped_model(SPEC, suite, MICRO) is not model


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """Record into a fresh run ledger; yields its path."""
    observe.shutdown()
    monkeypatch.delenv(observe.DIR_ENV, raising=False)
    path = observe.configure(dir=tmp_path / "ledger")
    yield path
    observe.shutdown()


class TestObservability:
    def test_torn_archive_is_a_loud_miss(self, tmp_path, ledger):
        path = tmp_path / "artifact.npz"
        save_state(path, {"w": np.arange(64.0)})
        path.write_bytes(path.read_bytes()[:100])
        with pytest.warns(RuntimeWarning, match="artifact.npz"):
            assert zoo._load_cached_state(path) is None
        with pytest.warns(RuntimeWarning, match="artifact.npz"):
            assert zoo._load_cached_run(path) is None
        observe.shutdown()
        report = load_report(ledger)
        assert report.counters["cache.corrupt"] == 2
        assert "2 corrupt archive(s)" in report.render()

    def test_missing_archive_is_a_quiet_miss(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zoo._load_cached_state(tmp_path / "absent.npz") is None
            assert zoo._load_cached_run(tmp_path / "absent.npz") is None

    def test_grid_scope_rollup(self, zoo_cache, ledger):
        corruption_grid(1)
        observe.shutdown()
        report = load_report(ledger)
        cells = MICRO.n_repetitions  # one block of every distribution each
        assert report.grid_scope == {
            "warm_hits": cells,
            "warm_misses": len(artifact_names()),
            "model_reuses": cells - len(SPECS),
            "corrupt": 0,
        }
        assert f"{cells} artifact load(s) served from memory" in report.render()
