"""Shared fixtures (tiny tasks, models, a session-scoped trained model) and
the test-tier marker scheme.

Tests are split into two tiers: ``tier1`` is the fast default that every
PR runs (`pytest -m tier1`), ``tier2`` holds the slow integration,
hypothesis-property, and differential-oracle tests that run nightly.  Any
test not explicitly marked ``tier2`` is auto-marked ``tier1``, so new
tests land in the fast tier unless someone deliberately opts them out.
"""

from __future__ import annotations

import numpy as np
import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "tier2" not in item.keywords:
            item.add_marker(pytest.mark.tier1)

from repro import data, models, nn
from repro.data.datasets import TaskSuite
from repro.data.synthetic import ClassificationTaskConfig
from repro.optim import MultiStepLR
from repro.training import TrainConfig, Trainer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def make_tiny_suite(seed: int = 0, n_train: int = 120, n_test: int = 80) -> TaskSuite:
    """A 4-class, 8x8 task small enough for test-time training."""
    cfg = ClassificationTaskConfig(num_classes=4, image_size=8, seed=seed)
    return TaskSuite(cfg, n_train=n_train, n_test=n_test, name="tiny")


@pytest.fixture
def tiny_suite() -> TaskSuite:
    return make_tiny_suite()


def make_tiny_cnn(num_classes: int = 4, seed: int = 0) -> nn.Module:
    """A 3-conv network: fast but has structured-prunable layers."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 12, 3, padding=1, stride=2, bias=False, rng=rng),
        nn.BatchNorm2d(12),
        nn.ReLU(),
        nn.Conv2d(12, 12, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(12),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(12, num_classes, rng=rng),
    )


@pytest.fixture
def tiny_cnn() -> nn.Module:
    return make_tiny_cnn()


@pytest.fixture
def plan_run_rows(monkeypatch) -> list[int]:
    """Row count of every ``CompiledPlan.run`` call, in call order.

    One plan serves every row count of a row shape, so after an engine
    ``logits`` call the last entry is the row bucket that served it.
    """
    from repro.infer.plan import CompiledPlan

    rows: list[int] = []
    run = CompiledPlan.run

    def spy(plan, x):
        rows.append(x.shape[0])
        return run(plan, x)

    monkeypatch.setattr(CompiledPlan, "run", spy)
    return rows


@pytest.fixture
def state_hashes(monkeypatch) -> list:
    """Every model an inference engine content-hashes, in call order."""
    from repro.infer import engine

    hashed = []
    signature = engine._state_signature

    def spy(model):
        hashed.append(model)
        return signature(model)

    monkeypatch.setattr(engine, "_state_signature", spy)
    return hashed


def make_tiny_trainer(
    model: nn.Module, suite: TaskSuite, epochs: int = 2, seed: int = 0
) -> Trainer:
    config = TrainConfig(
        epochs=epochs,
        batch_size=32,
        lr=0.05,
        warmup_epochs=0.25,
        schedule=MultiStepLR([0.75 * epochs], 0.1),
        seed=seed,
    )
    return Trainer(model, suite, config)


@pytest.fixture(scope="session")
def trained_setup():
    """A tiny CNN trained for a few epochs, shared across analysis tests.

    Returns ``(model, suite, trainer)``.  Tests must not mutate the model's
    weights; ones that prune should deep-copy the state first.
    """
    suite = make_tiny_suite(seed=1)
    model = make_tiny_cnn(seed=1)
    trainer = make_tiny_trainer(model, suite, epochs=4, seed=1)
    trainer.train()
    return model, suite, trainer


@pytest.fixture
def mlp_model() -> models.MLP:
    return models.MLP(3 * 8 * 8, hidden=(16,), num_classes=4, rng=np.random.default_rng(0))
