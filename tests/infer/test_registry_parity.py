"""Every registry architecture through the engine: train/eval × pruned/unpruned."""

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.models.registry import available_models, build_model
from repro.nn.prunable import PrunableWeightMixin
from repro.verify import oracle_registry_plan_parity

from tests.infer.test_engine import assert_parity, module_logits


def probe_for(name, rng, batch=4):
    shape = (batch, 3, 4, 4) if name == "mlp" else (batch, 3, 16, 16)
    return rng.standard_normal(shape).astype(np.float32)


def prune_half(model):
    for module in model.modules():
        if isinstance(module, PrunableWeightMixin):
            weight = module.weight.data
            cut = np.median(np.abs(weight))
            module.set_weight_mask((np.abs(weight) > cut).astype(np.float32))


@pytest.mark.tier2
class TestRegistryParity:
    def test_oracle_sweep_passes(self):
        report = oracle_registry_plan_parity()
        assert report.passed, report.summary()

    @pytest.mark.parametrize("name", available_models())
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_engine_matches_module(self, name, mode, pruned, rng, plan_run_rows):
        model = build_model(name, rng=np.random.default_rng(3))
        if pruned:
            prune_half(model)
        images = probe_for(name, rng)
        want = module_logits(model, images)  # always eval-mode stats
        model.train(mode == "train")
        engine = InferenceEngine(model, batch_size=len(images))
        got = engine.logits(images)
        assert engine.compiled_for(images), f"{name} fell back to module forward"
        assert model.training == (mode == "train")
        assert_parity(got, want)
        # The plan traced at 4 rows serves 2 rows too.
        assert_parity(engine.logits(images[:2]), want[:2])
        assert plan_run_rows[-1] == 2 and len(engine.plan_stats()) == 1
