"""Invariant checkers: pass on healthy models, catch planted corruption."""

import numpy as np
import pytest

from repro.nn.prunable import PrunableWeightMixin
from repro.pruning import build_method
from repro.pruning.mask import prunable_layers, structured_prunable_layers
from repro.verify import (
    VerificationReport,
    check_curve_sanity,
    check_flop_accounting,
    check_mask_weight_consistency,
    check_potential_sanity,
    check_prune_accounting,
    check_state_consistency,
    check_structured_masks,
    check_structured_shape_propagation,
)

from tests.conftest import make_tiny_cnn

INPUT_SHAPE = (3, 8, 8)


@pytest.fixture
def pruned_cnn():
    model = make_tiny_cnn()
    achieved = build_method("wt").prune(model, 0.5)
    return model, achieved


@pytest.fixture
def structured_cnn():
    model = make_tiny_cnn()
    achieved = build_method("ft").prune(model, 0.4)
    return model, achieved


def _revive_one_masked_weight(model) -> None:
    for _, layer in prunable_layers(model):
        idx = np.argwhere(layer.weight_mask == 0)
        if len(idx):
            layer.weight.data[tuple(idx[0])] = 1.234
            return
    raise AssertionError("no masked weight to corrupt")


class TestMaskWeightConsistency:
    def test_healthy_model_passes(self, pruned_cnn):
        model, _ = pruned_cnn
        assert check_mask_weight_consistency(model).passed

    def test_revived_weight_detected(self, pruned_cnn):
        model, _ = pruned_cnn
        _revive_one_masked_weight(model)
        report = check_mask_weight_consistency(model)
        assert not report.passed
        assert any("mask_weight_consistency" in r.name for r in report.failures)

    def test_non_binary_mask_detected(self, pruned_cnn):
        model, _ = pruned_cnn
        _, layer = prunable_layers(model)[0]
        layer._buffers["weight_mask"].reshape(-1)[0] = 0.5
        report = check_mask_weight_consistency(model)
        assert any("mask_binary" in r.name for r in report.failures)


class TestPruneAccounting:
    def test_reported_ratio_matches(self, pruned_cnn):
        model, achieved = pruned_cnn
        assert check_prune_accounting(model, reported_ratio=achieved).passed

    def test_misreported_ratio_detected(self, pruned_cnn):
        model, achieved = pruned_cnn
        report = check_prune_accounting(model, reported_ratio=achieved + 0.05)
        assert any("reported_ratio_matches" in r.name for r in report.failures)


class TestFlopAccounting:
    def test_two_accounting_routes_agree(self, pruned_cnn):
        model, _ = pruned_cnn
        report = check_flop_accounting(model, INPUT_SHAPE)
        assert report.passed

    def test_structured_pruning_reduces_flops(self, structured_cnn):
        model, _ = structured_cnn
        report = check_flop_accounting(model, INPUT_SHAPE)
        assert report.passed
        ctx = next(
            r.context for r in report.results if r.name == "flops_dense_minus_pruned"
        )
        assert ctx["pruned"] < ctx["dense"]


class TestStructuredMasks:
    def test_ft_masks_channel_aligned(self, structured_cnn):
        model, _ = structured_cnn
        assert check_structured_masks(model).passed

    def test_partial_channel_detected(self, structured_cnn):
        model, _ = structured_cnn
        name, layer = structured_prunable_layers(model)[0]
        mask = layer.weight_mask.copy()
        alive = np.flatnonzero(mask.sum(axis=(0, 2, 3)) > 0)
        mask[0, alive[0], 0, 0] = 0.0  # prune part of one channel column
        layer.set_weight_mask(mask)
        report = check_structured_masks(model)
        assert any("channel_aligned_mask" in r.name for r in report.failures)


class TestStructuredShapePropagation:
    def test_ft_pruned_channels_are_dead_upstream(self, structured_cnn, rng):
        model, _ = structured_cnn
        probe = rng.standard_normal((2, *INPUT_SHAPE)).astype(np.float32)
        report = check_structured_shape_propagation(model, probe)
        assert report.passed
        assert any(
            "structured_shape_propagation[" in r.name for r in report.results
        ), "expected at least one chain to be checked"

    def test_stale_mask_cache_detected(self, structured_cnn, rng, monkeypatch):
        # weight_mask says channels are dead, but a forward that skips the
        # mask uses the raw weights: propagation must notice.
        model, _ = structured_cnn
        for _, layer in structured_prunable_layers(model):
            if layer.num_pruned:
                layer.weight.data += 0.1  # desync weights from masks
        monkeypatch.setattr(
            PrunableWeightMixin, "masked_weight", property(lambda self: self.weight)
        )
        probe = rng.standard_normal((2, *INPUT_SHAPE)).astype(np.float32)
        report = check_structured_shape_propagation(model, probe)
        assert not report.passed


class TestStateConsistency:
    def test_state_dict_roundtrip_passes(self, pruned_cnn):
        model, achieved = pruned_cnn
        assert check_state_consistency(
            model.state_dict(), reported_ratio=achieved
        ).passed

    def test_nan_weight_detected(self, pruned_cnn):
        model, _ = pruned_cnn
        state = model.state_dict()
        key = next(k for k in state if k.endswith(".weight"))
        state[key] = state[key].copy()
        state[key].reshape(-1)[0] = np.nan
        report = check_state_consistency(state)
        assert any("finite" in r.name for r in report.failures)

    def test_no_masks_flagged(self):
        report = check_state_consistency({"w": np.ones(3)})
        assert any("has_prunable_state" in r.name for r in report.failures)


class TestCurveSanity:
    def test_healthy_curve(self):
        report = check_curve_sanity([0.3, 0.5, 0.8], [0.1, 0.12, 0.3], 0.1)
        assert report.passed

    def test_decreasing_ratios_detected(self):
        report = check_curve_sanity([0.5, 0.3], [0.1, 0.2], 0.1)
        assert any("ratios_monotone" in r.name for r in report.failures)

    def test_error_out_of_range_detected(self):
        report = check_curve_sanity([0.5], [1.7], 0.1)
        assert any("error_range" in r.name for r in report.failures)

    def test_nan_detected(self):
        report = check_curve_sanity([0.5], [np.nan], 0.1)
        assert any("finite" in r.name for r in report.failures)


class TestPotentialSanity:
    def test_in_range(self):
        assert check_potential_sanity(0.5, [0.3, 0.5, 0.8]).passed

    def test_above_curve_detected(self):
        report = check_potential_sanity(0.9, [0.3, 0.5])
        assert any("bounded_by_curve" in r.name for r in report.failures)


class TestReport:
    def test_summary_and_json(self, pruned_cnn):
        model, _ = pruned_cnn
        report = check_mask_weight_consistency(model)
        assert "checks passed" in report.summary()
        assert '"passed": true' in report.to_json()

    def test_raise_if_failed(self):
        from repro.verify import VerificationError

        report = VerificationReport("x")
        report.add("boom", False, detail="planted")
        with pytest.raises(VerificationError, match="boom"):
            report.raise_if_failed()
