"""The inference engine: parity, cache invalidation, fallback, opt-out."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.infer import InferenceEngine, adopt_engine, engine_for
from repro.models.registry import build_model
from repro.pruning import build_method
from repro.pruning.mask import prunable_layers

from tests.conftest import make_tiny_cnn


def module_logits(model, images):
    """Reference eval forward through the plain module."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model(Tensor(images)).data.copy()
    finally:
        model.train(was_training)


def assert_parity(got, want):
    """Scale-aware bound: BN-folding error rides on the largest activation."""
    bound = 1e-5 + 1e-5 * float(np.abs(want).max())
    assert float(np.abs(got - want).max()) <= bound


class Detour(nn.Module):
    """Untraceable forward: the output tensor is built outside the tape."""

    def forward(self, x):
        return Tensor(np.tanh(x.data).sum(axis=(2, 3)))


@pytest.fixture
def images(rng):
    return rng.standard_normal((32, 3, 8, 8)).astype(np.float32)


class TestParity:
    def test_compiled_logits_match_module(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert engine.compiled_for(images)
        assert_parity(got, module_logits(model, images))

    def test_pruned_model_parity(self, images):
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert engine.compiled_for(images)
        assert_parity(got, module_logits(model, images))

    def test_tail_chunk_is_padded_not_recompiled(self, images):
        engine = InferenceEngine(make_tiny_cnn(), batch_size=8)
        got = engine.logits(images[:5])
        assert_parity(got, module_logits(engine.model, images[:5]))
        # 5 rows pad up to 8; only the one 8-row plan exists.
        assert len([p for p in engine._plans.values() if p is not None]) == 1
        assert_parity(engine.logits(images), module_logits(engine.model, images))

    def test_fixed_pad_chunk_takes_the_smallest_licensed_bucket(self, images):
        """A 3-row chunk runs through a plan narrower than the batch size
        whenever that bucket's plan matches the 8-row plan bitwise, and its
        rows come out exactly as the 8-row plan computes them."""
        engine = InferenceEngine(make_tiny_cnn(), batch_size=8, pad="fixed")
        served = []
        engine.plan_used_hook = lambda eng, key, plan: served.append(key[0][0])
        got = engine.logits(images[:3])
        licensed = engine.licensed_buckets(images.shape[1:])
        assert served[-1] == min(rows for rows in licensed if rows >= 3)
        if 4 in licensed:
            assert served[-1] == 4 and ((4, 3, 8, 8), "<f4") in engine.plan_stats()
        np.testing.assert_array_equal(got, engine.logits(images[:8])[:3])
        assert served[-1] == 8

    def test_train_mode_untouched_and_eval_stats_used(self, images):
        model = make_tiny_cnn()
        want = module_logits(model, images)  # eval-mode running stats
        model.train()
        got = InferenceEngine(model).logits(images)
        assert model.training
        assert_parity(got, want)


class TestInvalidation:
    def test_weight_update_refreshes_constants(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        engine.logits(images)
        for _, param in model.named_parameters():
            param.data += 0.01  # in-place, like an SGD step
        assert_parity(engine.logits(images), module_logits(model, images))

    def test_new_mask_refreshes_densified_weights(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        before = engine.logits(images)
        for _, layer in prunable_layers(model):
            weight = layer.weight.data
            cut = np.median(np.abs(weight))
            layer.set_weight_mask((np.abs(weight) > cut).astype(np.float32))
        after = engine.logits(images)
        assert not np.allclose(before, after)
        assert_parity(after, module_logits(model, images))

    def test_checkpoint_revived_behind_its_masks_stays_masked(self, images):
        """A plan compiled on the unpruned parent applies a loaded
        checkpoint's masks as the module does, even when the checkpoint's
        masked weights are nonzero: the traced graph does not depend on
        which masks were active when it was traced."""
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        engine.logits(images)
        assert engine.compiled_for(images)
        pruned = make_tiny_cnn()
        build_method("wt").prune(pruned, 0.5)
        state = pruned.state_dict()
        for name, mask in state.items():
            if name.endswith("weight_mask"):
                weight = name[: -len("_mask")]
                state[weight] = np.where(mask == 0, 0.5, state[weight])
        model.load_state_dict(state)
        assert_parity(engine.logits(images), module_logits(model, images))

    def test_mutate_then_restore_does_not_serve_stale_constants(self, images):
        """Drift a param in place, restore via load_state_dict (which rebinds
        parameter arrays), and check the plan does not keep serving the
        drifted orphans.  The content signature is identical before and
        after the round-trip, so this only passes if refresh snapshots by
        copy instead of aliasing the model's live arrays."""
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        state = model.state_dict()
        want = engine.logits(images)
        assert engine.compiled_for(images)
        for _, param in model.named_parameters():
            param.data += 0.05  # in-place: drifts any array the plan aliased
        model.load_state_dict(state)  # rebinds params; contents == original
        got = engine.logits(images)
        np.testing.assert_array_equal(got, want)
        assert_parity(got, module_logits(model, images))

    def test_live_width_follows_the_weights(self, images):
        """Dead input channels are compiled out at refresh, and a later
        refresh that revives them widens the plan again."""
        model = build_model("resnet20", rng=np.random.default_rng(3))
        dense = model.state_dict()
        build_method("ft").prune(model, 0.5)
        pruned = model.state_dict()
        engine = InferenceEngine(model)

        def step():
            assert_parity(engine.logits(images), module_logits(model, images))
            (nbytes,) = engine.plan_stats().values()
            return nbytes

        narrow = step()
        model.load_state_dict(dense)  # the parent, into the same model
        wide = step()
        model.load_state_dict(pruned)  # reapply the masks
        assert narrow < wide
        assert step() == narrow

    def test_concatenations_keep_every_channel(self, images):
        model = build_model("densenet22", rng=np.random.default_rng(3))
        build_method("ft").prune(model, 0.5)
        engine = InferenceEngine(model)
        assert_parity(engine.logits(images), module_logits(model, images))
        assert engine.compiled_for(images)


class TestFallback:
    def test_untraceable_model_falls_back(self, images):
        model = Detour()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert not engine.compiled_for(images)
        np.testing.assert_array_equal(got, module_logits(model, images))

    def test_opt_out_env(self, images, monkeypatch):
        monkeypatch.setenv("REPRO_INFER", "0")
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert not engine.compiled_for(images)
        np.testing.assert_array_equal(got, module_logits(model, images))

    def test_fallback_restores_train_mode_on_exception(self, images):
        class Boom(nn.Module):
            def forward(self, x):
                raise RuntimeError("boom")

        model = Boom()
        model.train()
        with pytest.raises(RuntimeError):
            InferenceEngine(model).logits(images)
        assert model.training


class TestApi:
    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            InferenceEngine(make_tiny_cnn()).logits(np.empty((0, 3, 8, 8)))

    def test_predict_and_proba(self, images):
        engine = InferenceEngine(make_tiny_cnn())
        preds = engine.predict(images)
        probs = engine.predict_proba(images)
        assert preds.shape == (32,)
        assert probs.shape == (32, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        np.testing.assert_array_equal(probs.argmax(axis=1), preds)

    def test_engine_for_caches_and_passes_through(self):
        model = make_tiny_cnn()
        engine = engine_for(model)
        assert engine_for(model) is engine
        assert engine_for(engine) is engine

    def test_shared_engine_dies_with_its_model(self, images):
        model = make_tiny_cnn()
        engine = engine_for(model)
        engine.logits(images)
        assert engine.model is model
        ref = weakref.ref(engine)
        del model, engine
        gc.collect()
        assert ref() is None

    def test_adopted_engine_dies_with_its_model(self, images):
        model = make_tiny_cnn()
        engine = adopt_engine(InferenceEngine(model, batch_size=8, pad="fixed"))
        assert engine_for(model) is engine
        engine.logits(images)
        ref = weakref.ref(engine)
        del model, engine
        gc.collect()
        assert ref() is None
