"""Evaluation metrics beyond plain accuracy.

The segmentation experiments (Table 8) report intersection-over-union in
addition to top-1 pixel accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import table


def accuracy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy from raw logits.

    Accepts classification logits ``(N, K)`` with labels ``(N,)`` or dense
    segmentation logits ``(N, K, H, W)`` with labels ``(N, H, W)``; the
    class axis is 1 in both layouts.
    """
    return float((np.asarray(logits).argmax(axis=1) == np.asarray(labels)).mean())


def cross_entropy_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross entropy from raw logits, matching ``nn.CrossEntropyLoss``.

    Runs the op table's cross-entropy kernel after the same ``(N, K, H, W)
    -> (N*H*W, K)`` dense flattening, so the no-grad eval path reports the
    autograd loss bit for bit.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim == 4:
        n, k, h, w = logits.shape
        logits = logits.transpose(0, 2, 3, 1).reshape(n * h * w, k)
        targets = targets.reshape(-1)
    if targets.ndim != 1 or logits.ndim != 2:
        raise ValueError(
            f"expected logits (N, K) and targets (N,), got {logits.shape}, {targets.shape}"
        )
    loss, _ = table.KERNELS["cross_entropy"]((logits, targets), {})
    return float(loss)


def confusion_matrix(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int
) -> np.ndarray:
    """Dense (num_classes, num_classes) confusion counts, rows = target."""
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {targets.shape}"
        )
    valid = (targets >= 0) & (targets < num_classes)
    idx = targets[valid] * num_classes + predictions[valid]
    counts = np.bincount(idx, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def per_class_iou(confusion: np.ndarray) -> np.ndarray:
    """IoU per class from a confusion matrix; NaN for absent classes."""
    tp = np.diag(confusion).astype(float)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    union = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, tp / union, np.nan)


def mean_iou(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int
) -> float:
    """Mean IoU over classes that appear in targets or predictions."""
    ious = per_class_iou(confusion_matrix(predictions, targets, num_classes))
    present = ~np.isnan(ious)
    if not present.any():
        raise ValueError("no class present in targets or predictions")
    return float(ious[present].mean())


def pixel_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 per-pixel accuracy."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    return float((predictions == targets).mean())
