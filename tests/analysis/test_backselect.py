"""BackSelect informative-pixel selection."""

import numpy as np
import pytest

from repro import nn
from repro.analysis.backselect import (
    backselect_order,
    confidence_on_informative_pixels,
    cross_model_confidence_matrix,
    informative_pixel_mask,
)
from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F


class PixelReader(nn.Module):
    """Logit k reads exactly pixel k (channel 0): ground-truth informativeness."""

    def __init__(self, pixels: list[int], h: int = 4, w: int = 4):
        super().__init__()
        self.pixels = pixels
        self.h, self.w = h, w

    def forward(self, x):
        flat = x.reshape(x.shape[0], 3, self.h * self.w)
        cols = [flat[:, 0:1, p] * 10.0 for p in self.pixels]
        from repro.autograd import ops

        return ops.concatenate(cols, axis=1)


class TestBackselectOrder:
    def test_returns_permutation(self, rng):
        model = PixelReader([0, 5])
        image = rng.random((3, 4, 4)).astype(np.float32)
        order = backselect_order(model, image)
        assert sorted(order.tolist()) == list(range(16))

    def test_informative_pixel_ranked_last(self, rng):
        """The one pixel the predicted logit reads must be most informative."""
        model = PixelReader([7, 12])
        image = rng.random((3, 4, 4)).astype(np.float32)
        image[0, 7 // 4, 7 % 4] = 5.0  # make class 0 the prediction
        order = backselect_order(model, image)
        assert order[-1] == 7

    def test_pixels_per_step_speeds_but_keeps_top(self, rng):
        model = PixelReader([3, 9])
        image = rng.random((3, 4, 4)).astype(np.float32)
        image[0, 0, 3] = 5.0
        order = backselect_order(model, image, pixels_per_step=4)
        assert order[-1] == 3

    def test_explicit_target_class(self, rng):
        model = PixelReader([2, 10])
        image = rng.random((3, 4, 4)).astype(np.float32)
        order = backselect_order(model, image, target_class=1)
        assert order[-1] == 10

    def test_rejects_batched_input(self, rng):
        with pytest.raises(ValueError):
            backselect_order(PixelReader([0]), rng.random((1, 3, 4, 4)))

    def test_restores_training_mode(self, rng):
        model = PixelReader([0, 1])
        model.train()
        backselect_order(model, rng.random((3, 4, 4)).astype(np.float32), pixels_per_step=8)
        assert model.training

    def test_chunked_candidates_match_full_materialization(self, rng):
        """Per-chunk candidate generation must reproduce the old full-set order.

        The reference below materializes every candidate at once (the old
        O((H·W)²·C) path) and evaluates it through the plain module
        forward at the same batch boundaries.
        """
        model = PixelReader([3, 9])
        image = rng.random((3, 4, 4)).astype(np.float32)
        c, h, w = image.shape
        n_pixels = h * w
        batch_size = 6  # forces 3 chunks over the initial 16 candidates
        target = 0

        remaining = list(range(n_pixels))
        order = []
        current = image.copy().reshape(c, n_pixels)
        while remaining:
            cand = np.repeat(
                current.reshape(1, c, n_pixels), len(remaining), axis=0
            )
            cand[np.arange(len(remaining)), :, remaining] = 0.0
            cand = cand.reshape(-1, c, h, w)
            with no_grad():
                conf = np.concatenate([
                    F.softmax(model(Tensor(cand[lo : lo + batch_size])), axis=1)
                    .data[:, target]
                    for lo in range(0, len(cand), batch_size)
                ])
            best = np.argsort(-conf, kind="stable")[:2]
            for b in sorted(best.tolist(), reverse=True):
                pixel = remaining.pop(b)
                order.append(pixel)
                current[:, pixel] = 0.0
        reference = np.asarray(order, dtype=np.int64)

        got = backselect_order(
            model, image, target_class=target,
            pixels_per_step=2, batch_size=batch_size,
        )
        np.testing.assert_array_equal(got, reference)


class TestInformativeMask:
    def test_keeps_top_fraction(self):
        order = np.arange(10)
        mask = informative_pixel_mask(order, 0.3)
        assert mask.sum() == 3
        assert mask[[7, 8, 9]].all()

    def test_at_least_one_pixel(self):
        mask = informative_pixel_mask(np.arange(100), 0.001)
        assert mask.sum() == 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            informative_pixel_mask(np.arange(4), 0.0)


class TestConfidenceOnMask:
    def test_high_when_informative_kept(self, rng):
        model = PixelReader([7, 12])
        image = rng.random((3, 4, 4)).astype(np.float32)
        image[0, 7 // 4, 7 % 4] = 5.0
        mask = np.zeros(16, dtype=bool)
        mask[7] = True
        conf_kept = confidence_on_informative_pixels(model, image, mask, true_class=0)
        conf_dropped = confidence_on_informative_pixels(model, image, ~mask, true_class=0)
        assert conf_kept > conf_dropped


class TestCrossModelMatrix:
    def test_shape_and_range(self, rng):
        models = [PixelReader([0, 5]), PixelReader([0, 5])]
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        labels = np.array([0, 1])
        heat = cross_model_confidence_matrix(models, images, labels, keep_fraction=0.25, pixels_per_step=8)
        assert heat.shape == (2, 2)
        assert (heat >= 0).all() and (heat <= 1).all()

    def test_identical_models_symmetric(self, rng):
        m = PixelReader([1, 14])
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        labels = np.array([0, 1])
        heat = cross_model_confidence_matrix([m, m], images, labels, keep_fraction=0.25, pixels_per_step=8)
        assert heat[0, 0] == pytest.approx(heat[1, 1])
        assert heat[0, 1] == pytest.approx(heat[0, 0])

    def test_empty_sample_raises(self, rng):
        """Regression: an empty sample used to divide 0/0 into a NaN heatmap."""
        models = [PixelReader([0, 5])]
        empty = np.empty((0, 3, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="non-empty"):
            cross_model_confidence_matrix(models, empty, np.empty((0,)))

    def test_length_mismatch_raises(self, rng):
        models = [PixelReader([0, 5])]
        images = rng.random((3, 3, 4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="3 images vs 2 labels"):
            cross_model_confidence_matrix(models, images, np.array([0, 1]))
