"""Experiment scale config and the cached model zoo."""

import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import SMOKE, ExperimentScale, ZooSpec
from repro.experiments import zoo
from repro.experiments.memo import memoize


class TestScale:
    def test_digest_stable(self):
        assert ExperimentScale().digest() == ExperimentScale().digest()

    def test_digest_changes_with_training_fields(self):
        base = ExperimentScale()
        assert base.digest() != base.with_(n_train=base.n_train + 1).digest()
        assert base.digest() != base.with_(lr=base.lr * 2).digest()
        assert base.digest() != base.with_(target_ratios=(0.5,)).digest()

    def test_digest_ignores_analysis_fields(self):
        """Tuning the analysis protocol must never invalidate trained zoo
        artifacts."""
        base = ExperimentScale()
        assert base.digest() == base.with_(delta=0.01).digest()
        assert base.digest() == base.with_(n_repetitions=1).digest()
        assert base.digest() == base.with_(noise_levels=(0.0, 0.9)).digest()
        assert base.digest() == base.with_(backselect_images=1).digest()

    def test_with_returns_new(self):
        base = ExperimentScale()
        other = base.with_(n_test=7)
        assert other.n_test == 7
        assert base.n_test != 7

    def test_seed_for_distinct_reps(self):
        s = ExperimentScale()
        assert s.seed_for(0) != s.seed_for(1)

    def test_smoke_is_frozen(self):
        with pytest.raises(Exception):
            SMOKE.n_train = 1  # type: ignore[misc]

    def test_presets_valid(self):
        from repro.experiments import FULL

        for preset in (SMOKE, FULL):
            assert 0 < min(preset.target_ratios) <= max(preset.target_ratios) < 1
            assert list(preset.target_ratios) == sorted(preset.target_ratios)
            assert preset.n_repetitions >= 1
            assert 0 < preset.delta < 0.1
            assert preset.noise_levels[0] == 0.0
        assert FULL.n_train > SMOKE.n_train
        assert FULL.digest() != SMOKE.digest()


class TestZooSpec:
    def test_key_includes_all_identity(self):
        scale = ExperimentScale()
        a = ZooSpec("cifar", "resnet20", "wt", 0, False).key(scale)
        assert ZooSpec("cifar", "resnet20", "wt", 1, False).key(scale) != a
        assert ZooSpec("cifar", "resnet20", "ft", 0, False).key(scale) != a
        assert ZooSpec("cifar", "resnet20", "wt", 0, True).key(scale) != a
        assert ZooSpec("imagenet", "resnet20", "wt", 0, False).key(scale) != a

    def test_parent_key_method_agnostic(self):
        scale = ExperimentScale()
        assert "parent" in ZooSpec(method_name=None).key(scale)

    def test_method_name_canonicalized_at_construction(self):
        """Any accepted spec spelling shares one artifact cache key."""
        scale = ExperimentScale()
        a = ZooSpec("cifar", "resnet20", "WT", 0, False)
        b = ZooSpec("cifar", "resnet20", "wt(steps=1)", 0, False)
        assert a.method_name == b.method_name == "wt"
        assert a.key(scale) == b.key(scale)
        assert a == b  # frozen-dataclass equality follows canonicalization

    def test_distinct_hyperparams_distinct_keys(self):
        scale = ExperimentScale()
        a = ZooSpec("cifar", "resnet20", "lowrank", 0, False)
        b = ZooSpec("cifar", "resnet20", "lowrank(rank_frac=0.25)", 0, False)
        assert a.key(scale) != b.key(scale)

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown pruning method"):
            ZooSpec("cifar", "resnet20", "frobnicate", 0, False)


class TestSuites:
    def test_make_suite_tasks(self):
        scale = ExperimentScale(n_train=32, n_test=16)
        cifar = zoo.make_suite("cifar", scale)
        imagenet = zoo.make_suite("imagenet", scale)
        voc = zoo.make_suite("voc", scale)
        assert cifar.num_classes == scale.num_classes
        assert imagenet.num_classes == 2 * scale.num_classes
        assert voc.is_segmentation

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError, match="unknown task"):
            zoo.make_suite("mnist", ExperimentScale())

    def test_model_repetition_changes_init(self):
        scale = ExperimentScale(n_train=32, n_test=16)
        suite = zoo.make_suite("cifar", scale)
        a = zoo.make_model(ZooSpec(repetition=0), suite, scale)
        b = zoo.make_model(ZooSpec(repetition=1), suite, scale)
        pa = dict(a.named_parameters())["stem.weight"].data
        pb = dict(b.named_parameters())["stem.weight"].data
        assert not np.allclose(pa, pb)


class TestCaching:
    def test_parent_state_cached_on_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = ExperimentScale(
            n_train=48, n_test=24, parent_epochs=1, retrain_epochs=1, base_width=2,
            target_ratios=(0.5,), n_repetitions=1,
        )
        spec = ZooSpec("cifar", "resnet20", None, 0)
        state1 = zoo.get_parent_state(spec, scale)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        state2 = zoo.get_parent_state(spec, scale)
        for key in state1:
            np.testing.assert_array_equal(state1[key], state2[key])

    def test_prune_run_requires_method(self):
        with pytest.raises(ValueError, match="method_name"):
            zoo.get_prune_run(ZooSpec(method_name=None), ExperimentScale())

    def test_prune_run_cached_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = ExperimentScale(
            n_train=48, n_test=24, parent_epochs=1, retrain_epochs=0, base_width=2,
            target_ratios=(0.4,), n_repetitions=1,
        )
        spec = ZooSpec("cifar", "resnet20", "wt", 0)
        run1 = zoo.get_prune_run(spec, scale)
        run2 = zoo.get_prune_run(spec, scale)
        np.testing.assert_allclose(run1.ratios, run2.ratios)
        assert run1.meta["model"] == "resnet20"

    def test_clear_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "x.npz").write_bytes(b"")
        zoo.clear_cache()
        assert not list(tmp_path.glob("*.npz"))

    def test_git_tracks_no_cache_files(self):
        """Zoo artifacts are build outputs.  A tracked one of unknown
        origin would load as a cache hit in every fresh checkout."""
        try:
            tracked = subprocess.run(
                ["git", "ls-files", ".cache"],
                cwd=Path(__file__).resolve().parents[2],
                capture_output=True, text=True, check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("not a git checkout")
        assert tracked == ""


class TestMemoize:
    def test_caches_by_args(self):
        calls = []

        @memoize
        def fn(a, b=1):
            calls.append((a, b))
            return a + b

        assert fn(1) == 2
        assert fn(1) == 2
        assert fn(1, b=2) == 3
        assert len(calls) == 2

    def test_list_args_normalized(self):
        calls = []

        @memoize
        def fn(items):
            calls.append(1)
            return sum(items)

        assert fn([1, 2]) == 3
        assert fn([1, 2]) == 3
        assert len(calls) == 1

    def test_cache_clear(self):
        calls = []

        @memoize
        def fn():
            calls.append(1)
            return 0

        fn()
        fn.cache_clear()
        fn()
        assert len(calls) == 2

    def test_nested_lists_normalized(self):
        """Nested containers must hash to the same key as their tuple form."""
        calls = []

        @memoize
        def fn(groups):
            calls.append(1)
            return sum(x for g in groups for x in g)

        assert fn([[1, 2], [3]]) == 6
        assert fn(([1, 2], (3,))) == 6
        assert fn((((1, 2)), [3])) == 6
        assert len(calls) == 1

    def test_dict_args_normalized(self):
        calls = []

        @memoize
        def fn(config):
            calls.append(1)
            return len(config)

        assert fn({"a": [1, 2], "b": {"c": 3}}) == 2
        assert fn({"b": {"c": 3}, "a": (1, 2)}) == 2  # key order irrelevant
        assert len(calls) == 1
        assert fn({"a": [1, 2], "b": {"c": 4}}) == 2  # nested value differs
        assert len(calls) == 2

    def test_set_args_normalized(self):
        calls = []

        @memoize
        def fn(names):
            calls.append(1)
            return len(names)

        assert fn({"x", "y"}) == 2
        assert fn(frozenset(("y", "x"))) == 2
        assert len(calls) == 1

    def test_dict_and_items_tuple_do_not_collide(self):
        calls = []

        @memoize
        def fn(value):
            calls.append(1)
            return 0

        fn({"a": 1})
        fn((("a", 1),))
        assert len(calls) == 2

    def test_ignore_excludes_kwarg_from_key(self):
        calls = []

        @memoize(ignore=("jobs",))
        def fn(a, jobs=None):
            calls.append(jobs)
            return a

        assert fn(1, jobs=1) == 1
        assert fn(1, jobs=4) == 1  # cache hit despite different jobs
        assert calls == [1]
        assert fn(2, jobs=4) == 2
        assert len(calls) == 2

    def test_normalize_canonicalizes_before_keying(self):
        from repro.pruning import canonical_spec

        calls = []

        @memoize(normalize={"method_name": canonical_spec})
        def fn(task, method_name):
            calls.append(method_name)
            return method_name

        assert fn("cifar", "WT") == "wt"  # body sees the canonical form
        assert fn("cifar", "wt(steps=1)") == "wt"  # cache hit, same entry
        assert fn("cifar", method_name="wt") == "wt"  # kwarg spelling too
        assert calls == ["wt"]
        assert fn("cifar", "wt(steps=2)") == "wt(steps=2)"
        assert len(calls) == 2
