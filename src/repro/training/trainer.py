"""Training and evaluation loops.

The :class:`Trainer` reproduces the paper's recipe structure (Tables 3/5/7):
SGD with momentum and weight decay, a learning-rate schedule with linear
warm-up, standard crop/flip augmentation, and — critically for Algorithm 1 —
``retrain()`` re-runs the *identical* recipe from epoch 0, as Renda et
al. (2020) fine-tuning does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import nn, observe
from repro.infer import train_engine_for
from repro.data.datasets import Dataset, Normalizer, TaskSuite
from repro.data.augmentation import random_crop_flip
from repro.data.loaders import iterate_minibatches
from repro.optim import SGD, ConstantLR, LRSchedule, WarmupLR
from repro.training.history import EpochRecord, History
from repro.training.metrics import accuracy_from_logits
from repro.utils.rng import as_rng


@dataclass
class TrainConfig:
    """Hyperparameters of one training (or retraining) run."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = False
    weight_decay: float = 1e-4
    warmup_epochs: float = 1.0
    schedule: LRSchedule = field(default_factory=ConstantLR)
    # Retraining re-runs the same recipe; when it is shorter than the
    # original training, the LR decay must be compressed into the shorter
    # budget or the fine-tuning phase is never reached.
    retrain_schedule: LRSchedule | None = None
    augment: bool = True
    seed: int = 0


def evaluate_model(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    normalizer: Normalizer | None = None,
    batch_size: int = 256,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> dict[str, float]:
    """Evaluate a model; returns ``{"accuracy", "error", "loss"}``.

    ``transform`` is applied to the *normalized* inputs, which is where the
    paper injects ℓ∞ noise.  Forwards go through the :mod:`repro.infer`
    engine (compiled no-grad plans with a plain ``Module`` fallback);
    ``model`` may be a :class:`~repro.infer.InferenceEngine` directly.
    The chunking below keeps the historical batch boundaries so per-batch
    ``transform`` randomness draws exactly as before.
    """
    from repro.infer import engine_for
    from repro.training.metrics import (
        confusion_matrix,
        cross_entropy_from_logits,
        per_class_iou,
    )

    engine = engine_for(model)
    total, correct, loss_sum = 0, 0.0, 0.0
    confusion: np.ndarray | None = None
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        if normalizer is not None:
            x = normalizer(x)
        if transform is not None:
            x = transform(x)
        logits = engine.logits(x, batch_size=batch_size)
        n = len(x)
        loss_sum += cross_entropy_from_logits(logits, y) * n
        correct += accuracy_from_logits(logits, y) * n
        total += n
        if logits.ndim == 4:  # dense prediction: also track IoU
            num_classes = logits.shape[1]
            batch_conf = confusion_matrix(logits.argmax(axis=1), y, num_classes)
            confusion = batch_conf if confusion is None else confusion + batch_conf
    accuracy = correct / total
    out = {"accuracy": accuracy, "error": 1.0 - accuracy, "loss": loss_sum / total}
    if confusion is not None:
        ious = per_class_iou(confusion)
        out["iou"] = float(np.nanmean(ious))
    return out


class Trainer:
    """Trains a model on a :class:`TaskSuite` with the paper's recipe shape."""

    def __init__(
        self,
        model: nn.Module,
        task: TaskSuite,
        config: TrainConfig,
        augment_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.model = model
        self.task = task
        self.config = config
        self.normalizer = task.normalizer()
        self.loss_fn = nn.CrossEntropyLoss()
        self._extra_augment = augment_fn
        self._rng = as_rng(config.seed)

    # ------------------------------------------------------------- internal
    def _augment(self, batch: np.ndarray) -> np.ndarray:
        if self._extra_augment is not None:
            batch = self._extra_augment(batch)
        if self.config.augment:
            batch = random_crop_flip(batch, self._rng)
        return batch

    # --------------------------------------------------------------- public
    def train(
        self,
        epochs: int | None = None,
        schedule: LRSchedule | None = None,
        label: str = "train",
    ) -> History:
        """Run the full recipe (used both for training and for retraining).

        A caller-supplied ``schedule`` that is already a :class:`WarmupLR`
        is used as-is (no double warm-up); otherwise the config's warm-up
        is wrapped around it.  The schedule is evaluated at each step's
        *completed* fractional epoch — never exactly 0, so the first batch
        trains at a non-zero learning rate instead of a wasted no-op step.
        """
        cfg = self.config
        epochs = cfg.epochs if epochs is None else epochs
        base = schedule if schedule is not None else cfg.schedule
        if not isinstance(base, WarmupLR):
            base = WarmupLR(base, cfg.warmup_epochs)
        schedule = base
        train = self.task.train_set()
        if len(train) == 0:
            raise ValueError(
                f"cannot train {label!r}: the training set is empty"
            )
        optimizer = SGD(
            self.model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            nesterov=cfg.nesterov,
        )
        # The compiled-training seam: static forward+backward plans with a
        # per-batch tape fallback (untraceable model or failed
        # compile-time validation) — see repro.infer.trainengine.
        engine = train_engine_for(self.model, self.loss_fn, optimizer)
        history = History()
        self.model.train()
        # When no augmentation runs, every epoch would re-normalize the
        # same images; hoist the normalization out of the loop.  With
        # augmentation on, the per-batch path is kept bit-identical.
        static_inputs = not cfg.augment and self._extra_augment is None
        images = self.normalizer(train.images) if static_inputs else train.images
        n_batches = max(int(np.ceil(len(train) / cfg.batch_size)), 1)
        first_step = 1.0 / n_batches
        observing = observe.enabled()

        with observe.span(label, epochs=epochs, batch_size=cfg.batch_size):
            for epoch in range(epochs):
                loss_sum, acc_sum, seen = 0.0, 0.0, 0
                lr_sum, lr_trace = 0.0, []
                epoch_t0 = time.perf_counter()
                for b, (x, y) in enumerate(
                    iterate_minibatches(
                        images,
                        train.labels,
                        cfg.batch_size,
                        rng=self._rng,
                        augment=self._augment,
                    )
                ):
                    optimizer.lr = cfg.lr * schedule(
                        max(epoch + b / n_batches, first_step)
                    )
                    lr_sum += optimizer.lr
                    if observing:
                        lr_trace.append(optimizer.lr)
                    if not static_inputs:
                        x = self.normalizer(x)
                    loss_val, logits = engine.step(x, y)
                    n = len(x)
                    loss_sum += loss_val * n
                    acc_sum += accuracy_from_logits(logits, y) * n
                    seen += n
                record = EpochRecord(
                    epoch=epoch,
                    train_loss=loss_sum / seen,
                    train_accuracy=acc_sum / seen,
                    lr_last=optimizer.lr,
                    lr_mean=lr_sum / (b + 1),
                )
                history.append(record)
                if observing:
                    epoch_seconds = time.perf_counter() - epoch_t0
                    observe.hist(
                        "train.batches_per_s",
                        (b + 1) / epoch_seconds if epoch_seconds > 0 else 0.0,
                    )
                    observe.event(
                        "epoch",
                        label=label,
                        epoch=epoch,
                        train_loss=record.train_loss,
                        train_accuracy=record.train_accuracy,
                        lr_last=record.lr_last,
                        lr_mean=record.lr_mean,
                        lr_trace=[round(v, 8) for v in lr_trace],
                        seconds=epoch_seconds,
                    )
        return history

    def retrain(self, epochs: int | None = None) -> History:
        """Retrain after pruning with the identical recipe (Algorithm 1, l.6)."""
        return self.train(
            epochs, schedule=self.config.retrain_schedule, label="retrain"
        )

    def evaluate(
        self,
        dataset: Dataset | None = None,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> dict[str, float]:
        """Evaluate on ``dataset`` (defaults to the nominal test split)."""
        dataset = dataset or self.task.test_set()
        return evaluate_model(
            self.model,
            dataset.images,
            dataset.labels,
            normalizer=self.normalizer,
            transform=transform,
        )
