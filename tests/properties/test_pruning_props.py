"""Property-based tests of pruning invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.prune_potential import prune_potential_from_curve
from repro.pruning import (
    FilterThresholding,
    WeightThresholding,
    model_prune_ratio,
)
from repro.pruning.mask import prunable_layers, structured_prunable_layers
from repro.pruning.structured import pruned_channels

from tests.conftest import make_tiny_cnn

pytestmark = pytest.mark.tier2


class TestWTProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.floats(0.01, 0.97))
    def test_any_target_achieved(self, target):
        model = make_tiny_cnn()
        achieved = WeightThresholding().prune(model, target)
        assert achieved == pytest.approx(target, abs=0.01)
        assert model_prune_ratio(model) == pytest.approx(achieved)

    @settings(max_examples=8, deadline=None)
    @given(
        st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4, unique=True).map(sorted)
    )
    # The first prune's rounding reaches 0.950083, past the second target.
    @example([0.9499999999999998, 0.95])
    def test_iterative_sequence_monotone(self, targets):
        model = make_tiny_cnn()
        wt = WeightThresholding()
        prev_masks = None
        for target in targets:
            wt.prune(model, target)
            masks = {n: l.weight_mask.copy() for n, l in prunable_layers(model)}
            if prev_masks is not None:
                for name in masks:
                    revived = (prev_masks[name] == 0) & (masks[name] == 1)
                    assert not revived.any()
            prev_masks = masks

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.95))
    def test_kept_weights_dominate_pruned(self, target):
        """Every surviving weight's magnitude >= every pruned weight's."""
        model = make_tiny_cnn(seed=2)
        WeightThresholding().prune(model, target)
        all_kept, all_pruned = [], []
        for _, layer in prunable_layers(model):
            w = np.abs(layer.weight.data)  # zeroed where pruned
            m = layer.weight_mask
            # Recover original magnitudes for pruned entries is impossible
            # post-zeroing, so check on a fresh model with same seed.
        fresh = make_tiny_cnn(seed=2)
        sens = np.concatenate(
            [np.abs(l.weight.data).ravel() for _, l in prunable_layers(fresh)]
        )
        masks = np.concatenate(
            [l.weight_mask.ravel() for _, l in prunable_layers(model)]
        )
        kept_min = sens[masks == 1].min()
        pruned_max = sens[masks == 0].max() if (masks == 0).any() else -np.inf
        assert kept_min >= pruned_max - 1e-9


class TestFTProperties:
    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.05, 0.6))
    def test_columns_fully_pruned_or_kept(self, target):
        model = make_tiny_cnn()
        FilterThresholding().prune(model, target)
        for _, layer in structured_prunable_layers(model):
            col = layer.weight_mask.sum(axis=(0, 2, 3))
            full = float(layer.weight_mask[:, 0].size)
            assert set(np.unique(col)) <= {0.0, full}

    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.05, 0.9))
    def test_at_least_one_channel_survives(self, target):
        model = make_tiny_cnn()
        FilterThresholding().prune(model, target)
        for _, layer in structured_prunable_layers(model):
            assert pruned_channels(layer).sum() < layer.in_channels


class TestPrunePotentialProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.2),
    )
    def test_bounded_by_max_ratio(self, errors, parent_error, delta):
        ratios = np.linspace(0.1, 0.9, len(errors))
        p = prune_potential_from_curve(ratios, np.array(errors), parent_error, delta)
        assert 0.0 <= p <= ratios.max()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.floats(0.0, 0.5),
    )
    def test_monotone_in_delta(self, errors, parent_error):
        ratios = np.linspace(0.1, 0.9, len(errors))
        errors = np.array(errors)
        p_small = prune_potential_from_curve(ratios, errors, parent_error, 0.01)
        p_large = prune_potential_from_curve(ratios, errors, parent_error, 0.2)
        assert p_large >= p_small

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=6))
    def test_zero_delta_parent_level_errors(self, errors):
        """Errors at/below parent level always qualify."""
        ratios = np.linspace(0.1, 0.9, len(errors))
        errors = np.array(errors)
        p = prune_potential_from_curve(ratios, errors, errors.max(), 0.0)
        assert p == ratios[np.argwhere(errors <= errors.max()).max()]
