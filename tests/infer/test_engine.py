"""The inference engine: parity, cache invalidation, fallback, opt-out."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.infer import InferenceEngine, adopt_engine, engine_for
from repro.infer import engine as engine_module
from repro.infer.plan import CompiledPlan
from repro.infer.trace import trace
from repro.models.registry import build_model
from repro.nn.module import is_sealed
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


class BakesBatch(nn.Module):
    """Traceable, but adds a constant sized by the batch it runs on."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(3 * 8 * 8, 4, rng=np.random.default_rng(0))

    def forward(self, x):
        row_index = np.arange(x.shape[0], dtype=np.float32).reshape(-1, 1)
        return self.fc(x.reshape(x.shape[0], -1)) + Tensor(row_index)


def engine_compiles(monkeypatch) -> tuple[list, list]:
    """Spy on the engine: every ``trace`` call and every ``CompiledPlan``
    it constructs, from now on."""
    traced, built = [], []

    def counting_trace(model, sample):
        traced.append(sample.shape)
        return trace(model, sample)

    class CountedPlan(CompiledPlan):
        def __init__(self, graph, exact=False):
            super().__init__(graph, exact)
            built.append(self)

    monkeypatch.setattr(engine_module, "trace", counting_trace)
    monkeypatch.setattr(engine_module, "CompiledPlan", CountedPlan)
    return traced, built


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

    def test_fixed_pad_chunk_takes_the_smallest_licensed_bucket(
        self, images, plan_run_rows
    ):
        """A 3-row chunk runs at a row count below the batch size whenever
        that bucket matches the 8-row run bitwise, and its rows come out
        exactly as the 8-row run computes them."""
        engine = InferenceEngine(make_tiny_cnn(), batch_size=8, pad="fixed")
        got = engine.logits(images[:3])
        licensed = engine.licensed_buckets(images.shape[1:])
        assert plan_run_rows[-1] == min(rows for rows in licensed if rows >= 3)
        assert list(engine.plan_stats()) == [((3, 8, 8), "<f4")]
        np.testing.assert_array_equal(got, engine.logits(images[:8])[:3])
        assert plan_run_rows[-1] == 8

    def test_license_probe_runs_full_width_once_per_state(
        self, images, plan_run_rows
    ):
        """Every bucket of a row shape is checked against one full-width
        probe run: licensing the 1-, 2- and 4-row buckets runs the 8-row
        probe once, and once more after the model state changes."""
        model = make_tiny_cnn()
        engine = InferenceEngine(model, batch_size=8, pad="fixed")
        engine.logits(images[:8])  # compile the row shape's plan
        for state in (None, make_tiny_cnn(seed=21).state_dict()):
            if state is not None:
                model.load_state_dict(state)
            del plan_run_rows[:]
            served = []
            for rows in (1, 2, 3):
                engine.logits(images[:rows])
                served.append(plan_run_rows[-1])
            assert plan_run_rows.count(8) - served.count(8) == 1

    def test_row_count_sweep_compiles_one_plan(self, images, monkeypatch):
        """BackSelect's sweep of shrinking batches compiles one plan, and
        each bucket's rows are bitwise those of a plan traced and compiled
        at that bucket's row count."""
        model = make_tiny_cnn()
        build_method("ft").prune(model, 0.5)
        engine = InferenceEngine(model, batch_size=8)
        _, built = engine_compiles(monkeypatch)
        for rows in range(8, 0, -1):
            got = engine.logits(images[:rows])
            bucket = 1 << (rows - 1).bit_length()
            padded = np.zeros((bucket,) + images.shape[1:], dtype=images.dtype)
            padded[:rows] = images[:rows]
            reference = CompiledPlan(trace(model, padded))
            reference.refresh(model)
            np.testing.assert_array_equal(got, reference.run(padded)[:rows])
        assert len(built) == 1

    def test_fixed_pad_license_traces_and_compiles_nothing(
        self, images, monkeypatch, plan_run_rows
    ):
        engine = InferenceEngine(make_tiny_cnn(), batch_size=8, pad="fixed")
        engine.logits(images[:8])
        traced, built = engine_compiles(monkeypatch)
        del plan_run_rows[:]
        engine.logits(images[:3])
        assert traced == [] and built == []
        # The 4-row license ran the probe at the full width, then at 4 rows.
        assert plan_run_rows[:2] == [8, 4]

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


class TestSealedState:
    """A sealed model's state is trusted by array identity; anything else
    is hashed, as every unsealed state is."""

    def test_sealed_state_is_hashed_once(self, images, state_hashes):
        model = make_tiny_cnn().seal()
        engine = InferenceEngine(model)
        want = engine.logits(images)
        for _ in range(3):
            np.testing.assert_array_equal(engine.logits(images), want)
        assert len(state_hashes) == 1

    def test_unsealed_state_is_hashed_every_call(self, images, state_hashes):
        engine = InferenceEngine(make_tiny_cnn())
        for _ in range(3):
            engine.logits(images)
        assert len(state_hashes) == 3

    def test_writeable_turned_back_on_takes_the_content_path(
        self, images, state_hashes
    ):
        model = make_tiny_cnn().seal()
        engine = InferenceEngine(model)
        engine.logits(images)
        weight = model[0].weight.data
        weight.flags.writeable = True
        weight += 0.05
        assert_parity(engine.logits(images), module_logits(model, images))
        assert len(state_hashes) == 2
        engine.logits(images)  # still unsealed: hashed again
        assert len(state_hashes) == 3

    def test_read_only_view_of_writable_base_is_not_trusted(
        self, images, state_hashes
    ):
        model = make_tiny_cnn().seal()
        base = model[0].weight.data.copy()
        view = base[...]
        view.flags.writeable = False
        model[0].weight.data = view
        engine = InferenceEngine(model)
        before = engine.logits(images)
        base += 0.05  # changes the view's contents in place
        after = engine.logits(images)
        assert not np.array_equal(before, after)
        assert_parity(after, module_logits(model, images))
        assert len(state_hashes) == 2

    def test_load_state_dict_serves_the_new_state_as_a_fresh_engine(
        self, images, state_hashes
    ):
        model = make_tiny_cnn().seal()
        engine = InferenceEngine(model, batch_size=8, pad="fixed")
        before = engine.logits(images)
        donor = make_tiny_cnn(seed=9)
        build_method("wt").prune(donor, 0.5)
        model.load_state_dict(donor.state_dict())
        assert all(is_sealed(p.data) for p in model.parameters())
        got = engine.logits(images)
        assert not np.array_equal(got, before)
        fresh = InferenceEngine(model, batch_size=8, pad="fixed").logits(images)
        np.testing.assert_array_equal(got, fresh)
        assert len(state_hashes) == 3  # before, after the load, fresh engine
        engine.logits(images)
        assert len(state_hashes) == 3


class TestFallback:
    def test_untraceable_model_falls_back(self, images):
        model = Detour()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert not engine.compiled_for(images)
        np.testing.assert_array_equal(got, module_logits(model, images))

    @pytest.mark.parametrize("first_rows", [8, 1])
    def test_batch_sized_constant_is_refused(self, images, first_rows):
        """A plan whose graph bakes in the traced batch size fails the
        compile-time row-count check, so both the traced row count and
        another one are served as the module computes them."""
        model = BakesBatch()
        engine = InferenceEngine(model, batch_size=8)
        for rows in (first_rows, 3):
            want = module_logits(model, images[:rows])
            assert_parity(engine.logits(images[:rows]), want)
        assert not engine.compiled_for(images)

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
