"""Differential oracles: masked forward, round-trips, determinism, jobs."""

import numpy as np
import pytest

from repro.experiments import SMOKE, ZooSpec
from repro.models.registry import available_models
from repro.nn.prunable import PrunableWeightMixin
from repro.pruning import build_method
from repro.pruning.mask import prunable_layers
from repro.verify import (
    oracle_jobs_equivalence,
    oracle_masked_forward,
    oracle_plan_parity,
    oracle_registry_grad_plan_parity,
    oracle_registry_plan_parity,
    oracle_retrain_determinism,
    oracle_save_load_roundtrip,
    state_mismatches,
)

from tests.conftest import make_tiny_cnn, make_tiny_suite, make_tiny_trainer


class TestStateMismatches:
    def test_equal_states_clean(self, rng):
        a = {"w": rng.standard_normal((3, 4)), "b": np.arange(5)}
        assert state_mismatches(a, {k: v.copy() for k, v in a.items()}) == []

    def test_missing_shape_and_value_diffs(self, rng):
        a = {"w": np.ones((3, 4)), "b": np.arange(5), "extra": np.ones(2)}
        b = {"w": np.ones((4, 3)), "b": np.arange(1, 6)}
        assert sorted(state_mismatches(a, b)) == ["b", "extra", "w"]

    def test_dtype_diff(self):
        a = {"w": np.ones(3, dtype=np.float32), "n": np.arange(3)}
        b = {"w": np.ones(3, dtype=np.float64), "n": np.arange(3)}
        assert state_mismatches(a, b) == ["w"]


class TestMaskedForwardOracle:
    def test_pruned_model_equivalent(self, rng):
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        probe = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        report = oracle_masked_forward(model, probe)
        assert report.passed

    def test_stale_mask_cache_detected(self, rng, monkeypatch):
        # Weights revived behind the mask *and* a forward that skips the
        # mask: the live forward no longer matches the mask-baked forward.
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        for _, layer in prunable_layers(model):
            if layer.num_pruned:
                layer.weight.data += 0.5
        monkeypatch.setattr(
            PrunableWeightMixin, "masked_weight", property(lambda self: self.weight)
        )
        probe = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        report = oracle_masked_forward(model, probe)
        assert not report.passed

    def test_restores_model_state(self, rng):
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        oracle_masked_forward(model, rng.standard_normal((1, 3, 8, 8)))
        assert state_mismatches(before, model.state_dict()) == []


class TestSaveLoadRoundtrip:
    def test_arrays_and_meta_roundtrip(self, rng):
        arrays = {
            "f32": rng.standard_normal((4, 3)).astype(np.float32),
            "f64": rng.standard_normal(7),
            "i64": np.arange(6).reshape(2, 3),
            "nested/key": np.zeros(1),
        }
        meta = {"ratio": 0.5, "checkpoints": [{"test_error": 0.1}], "name": "x"}
        report = oracle_save_load_roundtrip(arrays, meta)
        assert report.passed

    def test_dtype_change_fails(self, rng, monkeypatch):
        """A load that hands float32 arrays back as float64 keeps every
        value, and still fails the round-trip."""
        import repro.utils.serialization as serialization

        load = serialization.load_state

        def upcasting_load(path):
            arrays, meta = load(path)
            return {k: v.astype(np.float64) for k, v in arrays.items()}, meta

        monkeypatch.setattr(serialization, "load_state", upcasting_load)
        arrays = {"w": rng.standard_normal((2, 3)).astype(np.float32)}
        report = oracle_save_load_roundtrip(arrays)
        assert not report.passed
        assert report.failures[0].name == "save_load_array_roundtrip"

    def test_explicit_path(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((2, 2))}
        report = oracle_save_load_roundtrip(arrays, path=tmp_path / "state.npz")
        assert report.passed


class TestPlanParityOracle:
    def test_pruned_tiny_cnn_passes_both_checks(self, rng):
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        probe = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        report = oracle_plan_parity(model, probe)
        assert report.passed
        assert {r.name for r in report.results} == {
            "plan_parity_unfolded",
            "plan_parity_folded",
        }

    def test_untraceable_model_reported_not_raised(self, rng):
        from repro import nn
        from repro.autograd import Tensor

        class Detour(nn.Module):
            def forward(self, x):
                return Tensor(np.tanh(x.data).sum(axis=(2, 3)))

        report = oracle_plan_parity(Detour(), rng.standard_normal((2, 3, 8, 8)))
        assert not report.passed
        (result,) = report.failures
        assert result.name == "plan_parity_unfolded"

    @pytest.mark.parametrize(
        "oracle",
        [oracle_registry_plan_parity, oracle_registry_grad_plan_parity],
        ids=["plan", "grad_plan"],
    )
    def test_registry_sweep(self, oracle):
        # Bitwise (exact-mode) parity on every registry architecture,
        # unpruned, pruned and channel-pruned: the gate for any change to
        # the plan scheduler, the kernels or the live-width pass.
        report = oracle()
        assert report.passed, report.summary()
        # Two checks per (architecture, probe state) entry.
        assert len(report.results) == 2 * 3 * len(available_models())


@pytest.mark.tier2
class TestRetrainDeterminism:
    def test_fixed_seed_is_deterministic(self):
        suite = make_tiny_suite(n_train=48, n_test=24)

        def factory():
            return make_tiny_trainer(make_tiny_cnn(), suite, epochs=1)

        report = oracle_retrain_determinism(factory)
        assert report.passed

    def test_seed_change_detected(self):
        suite = make_tiny_suite(n_train=48, n_test=24)
        seeds = iter([0, 1])

        def factory():
            return make_tiny_trainer(make_tiny_cnn(), suite, epochs=1, seed=next(seeds))

        report = oracle_retrain_determinism(factory)
        assert not report.passed
        (result,) = report.failures
        assert result.context["mismatched_keys"]


@pytest.mark.tier2
class TestJobsEquivalence:
    def test_serial_and_parallel_zoo_builds_match(self):
        scale = SMOKE.with_(
            n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
            parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,),
            n_repetitions=1,
        )
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        report = oracle_jobs_equivalence(specs, scale, jobs=2)
        assert report.passed
        # 1 shared parent + 2 prune runs were compared.
        assert len(report.results) == 3
