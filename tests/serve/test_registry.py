"""Registry tests: keys, warm engines, and the plan LRU under a byte budget.

Also holds an engine regression test: a warm plan held by the serving
layer re-densifies after ``load_state_dict`` (staleness).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import engine_for
from repro.serve import ModelKey, ModelZooRegistry, as_model_key
from tests.conftest import make_tiny_cnn
from tests.serve.conftest import ROW_SHAPE, images_for, make_registry, make_server


class TestModelKey:
    def test_str_and_parse_roundtrip(self):
        for key in (
            ModelKey("resnet20"),
            ModelKey("resnet20", "wt"),
            ModelKey("resnet20", "wt", 0.5),
        ):
            assert ModelKey.parse(str(key)) == key

    def test_str_forms(self):
        assert str(ModelKey("resnet20", "wt", 0.5)) == "resnet20/wt@0.5"
        assert str(ModelKey("resnet20", "wt")) == "resnet20/wt"
        assert str(ModelKey("resnet20")) == "resnet20"

    def test_as_model_key_accepts_both(self):
        key = ModelKey("a", "wt", 0.25)
        assert as_model_key(key) is key
        assert as_model_key("a/wt@0.25") == key


class TestRegistryEntries:
    def test_register_get_engine_keys(self, registry):
        assert registry.keys() == ["cnn0/wt@0.5", "cnn1/wt@0.5"]
        entry = registry.get("cnn0/wt@0.5")
        assert entry.engine.pad == "fixed"
        assert registry.engine("cnn0/wt@0.5") is entry.engine
        assert registry.model("cnn0/wt@0.5") is entry.model

    def test_unknown_key_raises_with_choices(self, registry):
        with pytest.raises(KeyError, match="cnn0/wt@0.5"):
            registry.get("nope")

    def test_registered_engine_is_adopted_by_engine_for(self, registry):
        entry = registry.get("cnn0/wt@0.5")
        assert engine_for(entry.model) is entry.engine

    def test_reregister_replaces_entry_and_forgets_plans(self, rng):
        registry = make_registry(n_models=1)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        assert registry.resident_plans()
        registry.register(ModelKey("cnn0", "wt", 0.5), make_tiny_cnn(seed=99))
        assert registry.resident_plans() == []
        assert registry.keys() == ["cnn0/wt@0.5"]

    def test_unregister_drops_entry_and_plans(self):
        registry = make_registry(n_models=2)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        registry.unregister("cnn0/wt@0.5")
        assert registry.keys() == ["cnn1/wt@0.5"]
        assert registry.resident_plans() == []
        registry.unregister("cnn0/wt@0.5")  # idempotent

    def test_warm_precompiles_the_fixed_width_plan(self, registry, rng):
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        engine = registry.engine("cnn0/wt@0.5")
        # Fixed padding: the 1-row probe compiled the full-width plan that
        # serves every occupancy of this shape.
        assert engine.compiled_for(images_for(rng, rows=1))
        assert engine.compiled_for(images_for(rng, rows=5))
        assert len(registry.resident_plans()) == 1

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelZooRegistry(memory_budget_bytes=0)


class TestPlanLRU:
    def plan_bytes(self) -> int:
        """Constant bytes of one tiny-CNN fixed-pad plan (any model)."""
        registry = make_registry(n_models=1)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        return registry.plan_memory_bytes()

    def test_lru_order_is_recency(self, registry, rng):
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        registry.warm("cnn1/wt@0.5", [ROW_SHAPE])
        assert [k for k, _ in registry.resident_plans()] == [
            "cnn0/wt@0.5", "cnn1/wt@0.5",
        ]
        # Serving cnn0 again moves it to most-recent.
        registry.engine("cnn0/wt@0.5").logits(images_for(rng))
        assert [k for k, _ in registry.resident_plans()] == [
            "cnn1/wt@0.5", "cnn0/wt@0.5",
        ]

    def test_evicts_least_recent_over_budget(self, rng):
        one_plan = self.plan_bytes()
        # Budget fits exactly two plans; the third touch evicts the LRU.
        registry = make_registry(n_models=3, memory_budget_bytes=2 * one_plan)
        for i in range(3):
            registry.warm(f"cnn{i}/wt@0.5", [ROW_SHAPE])
        assert registry.evictions == 1
        assert [k for k, _ in registry.resident_plans()] == [
            "cnn1/wt@0.5", "cnn2/wt@0.5",
        ]
        assert registry.plan_memory_bytes() <= 2 * one_plan
        # The evicted model recompiles transparently on next use...
        registry.engine("cnn0/wt@0.5").logits(images_for(rng))
        # ...and now cnn1 is the victim.
        assert registry.evictions == 2
        assert [k for k, _ in registry.resident_plans()] == [
            "cnn2/wt@0.5", "cnn0/wt@0.5",
        ]

    def test_just_used_plan_survives_even_alone_over_budget(self, rng):
        # A budget smaller than one plan must still retain the plan that
        # just served — evicting it would recompile on every request.
        registry = make_registry(n_models=1, memory_budget_bytes=1)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        assert len(registry.resident_plans()) == 1
        assert registry.evictions == 0
        registry.engine("cnn0/wt@0.5").logits(images_for(rng))
        assert len(registry.resident_plans()) == 1

    def test_eviction_drops_the_engine_plan_too(self, rng):
        one_plan = self.plan_bytes()
        registry = make_registry(n_models=2, memory_budget_bytes=one_plan)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        registry.warm("cnn1/wt@0.5", [ROW_SHAPE])
        engine0 = registry.engine("cnn0/wt@0.5")
        assert not engine0.compiled_for(images_for(rng))
        assert sum(engine0.plan_stats().values()) == 0

    def test_stats_snapshot(self):
        registry = make_registry(n_models=2, memory_budget_bytes=1 << 30)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        stats = registry.stats()
        assert stats["models"] == 2
        assert stats["resident_plans"] == 1
        assert stats["plan_memory_bytes"] == registry.plan_memory_bytes()
        assert stats["memory_budget_bytes"] == 1 << 30
        assert stats["evictions"] == 0


class TestPlanStaleness:
    def test_load_state_dict_under_warm_serving_refreshes_outputs(self, rng):
        """Regression: a warm plan held by the server must re-densify when
        the model's weights change out from under it."""
        registry = make_registry(n_models=1)
        server = make_server(registry)
        key = "cnn0/wt@0.5"
        images = images_for(rng, rows=3)
        before = server.predict_logits(key, images)

        donor = make_tiny_cnn(seed=77)
        registry.model(key).load_state_dict(donor.state_dict())
        after = server.predict_logits(key, images)

        assert not np.array_equal(before, after)
        # Bitwise-equal to the adopted engine on the new weights: the plan
        # refreshed rather than serving stale constants.
        np.testing.assert_array_equal(
            after, engine_for(registry.model(key)).logits(images)
        )
