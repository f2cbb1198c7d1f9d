"""Trainer.train through the compiled gradient-plan path.

The compiled engine is the default; these tests pin its contract to the
tape path: same ``History`` within tolerance (bitwise under the exact
kernel table), the hoisted no-augmentation normalization, and the
empty-train-set error.
"""

import functools
import gc
import weakref

import numpy as np
import pytest

from repro.data.datasets import Dataset, Normalizer
from repro.infer import TraceError, train_engine_for
from repro.infer.trainengine import _TRAIN_ENGINES

from tests.conftest import make_tiny_cnn, make_tiny_suite, make_tiny_trainer


def train_fresh(seed=3, epochs=2, **trainer_kw):
    """A fresh (suite, model, history) triple from one deterministic seed."""
    suite = make_tiny_suite(seed=seed)
    model = make_tiny_cnn(seed=seed)
    trainer = make_tiny_trainer(model, suite, epochs=epochs, seed=seed, **trainer_kw)
    return model, trainer.train()


def train_on_tape(monkeypatch, **kw):
    """``train_fresh`` with every step on the tape: no model traces."""
    import repro.infer.trainengine as trainengine_mod

    def untraceable(*args, **kwargs):
        raise TraceError("reference run on the tape")

    with monkeypatch.context() as patch:
        patch.setattr(trainengine_mod, "trace_training", untraceable)
        return train_fresh(**kw)


class TestCompiledVsTape:
    def test_history_and_weights_match_tape(self, monkeypatch):
        tape_model, tape_history = train_on_tape(monkeypatch)
        fast_model, fast_history = train_fresh()
        np.testing.assert_allclose(
            fast_history.losses(), tape_history.losses(), rtol=1e-3
        )
        for tape_rec, fast_rec in zip(tape_history.epochs, fast_history.epochs):
            assert abs(fast_rec.train_accuracy - tape_rec.train_accuracy) <= 0.05
        tape_state, fast_state = tape_model.state_dict(), fast_model.state_dict()
        for key in tape_state:
            np.testing.assert_allclose(
                fast_state[key], tape_state[key], atol=1e-3, err_msg=key
            )

    def test_exact_engine_is_bitwise_with_tape(self, monkeypatch):
        """Under the exact kernel table the whole training run — every
        loss, every weight — reproduces the tape bit for bit."""
        import repro.training.trainer as trainer_mod

        tape_model, tape_history = train_on_tape(monkeypatch)
        monkeypatch.setattr(
            trainer_mod,
            "train_engine_for",
            functools.partial(train_engine_for, exact=True),
        )
        exact_model, exact_history = train_fresh()
        assert exact_history.losses() == tape_history.losses()
        tape_state, exact_state = tape_model.state_dict(), exact_model.state_dict()
        for key in tape_state:
            np.testing.assert_array_equal(
                exact_state[key], tape_state[key], err_msg=key
            )

    def test_compiled_path_actually_used(self):
        model, _ = train_fresh(epochs=1)
        engine = _TRAIN_ENGINES.get(model)
        assert engine is not None
        assert any(plan is not None for plan in engine._plans.values())

    def test_shared_engine_dies_with_its_model(self):
        model, _ = train_fresh(epochs=1)
        ref = weakref.ref(_TRAIN_ENGINES[model])
        del model
        gc.collect()
        assert ref() is None


class TestTrainerEdgeCases:
    def test_empty_train_set_raises(self):
        suite = make_tiny_suite()

        class EmptyTask:
            num_classes = suite.num_classes

            def train_set(self):
                return Dataset(
                    images=np.zeros((0, 3, 8, 8), dtype=np.float32),
                    labels=np.zeros((0,), dtype=np.int64),
                )

            def normalizer(self):
                return Normalizer(
                    mean=np.zeros(3, np.float32), std=np.ones(3, np.float32)
                )

        trainer = make_tiny_trainer(make_tiny_cnn(), EmptyTask())
        with pytest.raises(ValueError, match="training set is empty"):
            trainer.train()

    def test_normalization_hoist_is_bitwise(self):
        """``augment=False`` hoists normalization out of the epoch loop;
        an identity ``augment_fn`` forces the per-batch path on identical
        data, so the two runs must end bit-identical."""

        def run(augment_fn):
            suite = make_tiny_suite(seed=4)
            model = make_tiny_cnn(seed=4)
            trainer = make_tiny_trainer(model, suite, epochs=1, seed=4)
            trainer.config.augment = False
            trainer._extra_augment = augment_fn
            history = trainer.train()
            return model.state_dict(), history

        hoisted_state, hoisted_history = run(None)
        batched_state, batched_history = run(lambda batch: batch)
        assert hoisted_history.losses() == batched_history.losses()
        for key in hoisted_state:
            np.testing.assert_array_equal(
                hoisted_state[key], batched_state[key], err_msg=key
            )
