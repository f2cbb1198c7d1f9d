"""Registry tests: keys, warm engines, the plan LRU under a byte budget,
the row-bucket licenses of served engines, and sealed served models.

Also holds an engine regression test: a warm plan held by the serving
layer re-densifies after ``load_state_dict`` (staleness).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import engine_for
from repro.infer import plan as plan_module
from repro.nn.module import is_sealed
from repro.pruning import build_method
from repro.serve import ModelKey, ModelZooRegistry, as_model_key
from tests.conftest import make_tiny_cnn
from tests.serve.conftest import ROW_SHAPE, images_for, make_registry, make_server


def held_scratch(plan) -> tuple[set[int], int]:
    """Row counts ``plan`` holds conv scratch for, and the bytes it holds
    (constants and scratch)."""
    bufs = [
        (rows, buf)
        for step in plan._steps
        for k in ("_scratch", "_scratch_t")
        for rows, buf in step[3].get(k, {}).items()
    ]
    held = plan._const_nbytes + sum(buf.nbytes for _, buf in bufs)
    return {rows for rows, _ in bufs}, held


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
        assert registry.get("cnn0/wt@0.50") is entry
        assert registry.get(ModelKey("cnn0", "wt", 0.5)) is entry
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

    def test_warm_precompiles_the_fixed_width_plan(self, registry, rng, plan_run_rows):
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        engine = registry.engine("cnn0/wt@0.5")
        # Warm compiles the row shape's one plan and serves its probe at
        # the full width; smaller buckets are licensed on first traffic,
        # so none is checked yet.
        plan_key = (ROW_SHAPE, "<f4")
        assert list(engine.plan_stats()) == [plan_key]
        assert registry.resident_plans() == [("cnn0/wt@0.5", plan_key)]
        assert plan_run_rows[-1] == 8
        assert engine.licensed_buckets(ROW_SHAPE) == [8]
        assert engine.compiled_for(images_for(rng, rows=1))
        assert engine.compiled_for(images_for(rng, rows=8))

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
        # Serving cnn0 again (a full-width batch: its warm plan) moves it
        # to most-recent.
        registry.engine("cnn0/wt@0.5").logits(images_for(rng, rows=8))
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
        registry.engine("cnn0/wt@0.5").logits(images_for(rng, rows=8))
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
        registry.engine("cnn0/wt@0.5").logits(images_for(rng, rows=8))
        assert len(registry.resident_plans()) == 1
        assert registry.evictions == 0

    def test_eviction_drops_the_engine_plan_too(self, rng):
        one_plan = self.plan_bytes()
        registry = make_registry(n_models=2, memory_budget_bytes=one_plan)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        registry.warm("cnn1/wt@0.5", [ROW_SHAPE])
        engine0 = registry.engine("cnn0/wt@0.5")
        assert not engine0.compiled_for(images_for(rng))
        assert sum(engine0.plan_stats().values()) == 0

    def test_refreshed_plan_bytes_reach_the_budget(self, rng):
        """The LRU accounts a plan at its size after the last refresh:
        loading a dense state into an FT-pruned model widens its plan, and
        a budget only the widened plan crosses evicts."""
        dense = make_tiny_cnn(seed=10).state_dict()

        def ft_registry(budget=None):
            registry = ModelZooRegistry(memory_budget_bytes=budget, batch_size=8)
            for i in range(2):
                model = make_tiny_cnn(seed=10 + i)
                build_method("ft").prune(model, 0.7)
                registry.register(f"cnn{i}/ft@0.7", model)
                registry.warm(f"cnn{i}/ft@0.7", [ROW_SHAPE])
            return registry

        def engine_bytes(registry):
            return sum(
                sum(registry.engine(key).plan_stats().values())
                for key in registry.keys()
            )

        # The budget fits both narrow plans exactly.
        registry = ft_registry(budget=ft_registry().plan_memory_bytes())
        assert registry.evictions == 0
        pruned = registry.model("cnn0/ft@0.7").state_dict()
        registry.model("cnn0/ft@0.7").load_state_dict(dense)
        registry.engine("cnn0/ft@0.7").logits(images_for(rng, rows=8))
        assert registry.plan_memory_bytes() == engine_bytes(registry)
        assert registry.evictions == 1
        assert [k for k, _ in registry.resident_plans()] == ["cnn0/ft@0.7"]
        # Narrowing is accounted too.
        registry.model("cnn0/ft@0.7").load_state_dict(pruned)
        registry.engine("cnn0/ft@0.7").logits(images_for(rng, rows=8))
        assert registry.plan_memory_bytes() == engine_bytes(registry)

    def test_new_row_count_scratch_reaches_the_budget(self, registry, rng):
        """A plan's bytes include the conv scratch of each row count it
        has run at: a run at a new row count raises them, and the LRU
        accounts the new size on the plan's next touch."""
        key = "cnn0/wt@0.5"
        registry.warm(key, [ROW_SHAPE])
        engine = registry.engine(key)
        (warm,) = engine.plan_stats().values()
        assert registry.plan_memory_bytes() == warm
        # Warm ran the plan at 8 rows (and at 1 for the compile's
        # row-count check, whose scratch it freed); a 3-row batch runs it
        # at 4, licensing that bucket.
        engine.logits(images_for(rng, rows=3))
        (grown,) = engine.plan_stats().values()
        assert grown > warm
        engine.logits(images_for(rng, rows=8))  # the next touch
        assert registry.plan_memory_bytes() == grown

    def test_warm_plan_holds_scratch_only_for_rows_that_served(
        self, registry, rng, plan_run_rows
    ):
        """The compile's 1-row check leaves no scratch behind: a warm plan
        holds conv scratch only at the row counts traffic ran it at, and
        its bytes are exactly what it holds."""
        key = "cnn0/wt@0.5"
        registry.warm(key, [ROW_SHAPE])
        (plan,) = registry.engine(key)._plans.values()
        assert 1 in plan_run_rows
        assert held_scratch(plan) == ({8}, plan.nbytes)
        registry.engine(key).logits(images_for(rng, rows=3))
        assert held_scratch(plan) == ({4, 8}, plan.nbytes)

    def test_stats_snapshot(self, rng):
        registry = make_registry(n_models=2, memory_budget_bytes=1 << 30)
        registry.warm("cnn0/wt@0.5", [ROW_SHAPE])
        # A 3-row batch licenses a bucket through the warm plan.
        registry.engine("cnn0/wt@0.5").logits(images_for(rng, rows=3))
        stats = registry.stats()
        engine = registry.engine("cnn0/wt@0.5")
        assert stats["models"] == 2
        assert stats["resident_plans"] == len(engine.plan_stats())
        assert stats["plan_memory_bytes"] == sum(engine.plan_stats().values())
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


class TestSealing:
    """A registered model is sealed: in-place writes raise, and served
    traffic trusts its state by array identity."""

    def test_in_place_write_raises_and_served_outputs_are_unchanged(self, rng):
        registry = make_registry(n_models=1)
        server = make_server(registry)
        key = "cnn0/wt@0.5"
        model = registry.model(key)
        images = images_for(rng, rows=3)
        before = server.predict_logits(key, images)
        with pytest.raises(ValueError, match="read-only"):
            model[0].weight.data += 1.0
        with pytest.raises(ValueError, match="read-only"):
            model[1].running_mean[...] = 0.0
        np.testing.assert_array_equal(server.predict_logits(key, images), before)

    def test_model_stays_sealed_after_unregister(self):
        registry = make_registry(n_models=1)
        model = registry.model("cnn0/wt@0.5")
        registry.unregister("cnn0/wt@0.5")
        assert all(is_sealed(p.data) for p in model.parameters())
        assert all(is_sealed(b) for _, b in model.named_buffers())

    def test_warm_traffic_hashes_no_state_until_a_load(self, rng, state_hashes):
        registry = make_registry(n_models=2)
        for key in registry.keys():
            registry.warm(key, [ROW_SHAPE])
        server = make_server(registry)
        state_hashes.clear()

        def traffic():
            responses = [
                server.submit(key, images_for(rng, rows=rows))
                for rows in (1, 3, 8, 2)
                for key in registry.keys()
            ]
            server.run_until_idle()
            assert all(r.status == "ok" for r in responses)

        traffic()
        assert state_hashes == []
        model = registry.model("cnn1/wt@0.5")
        model.load_state_dict(make_tiny_cnn(seed=77).state_dict())
        traffic()
        assert state_hashes == [model]


class TestBucketLicense:
    """Only buckets licensed bitwise against the full-width run serve."""

    def test_unlicensed_bucket_keeps_no_plan_and_serves_one_up(
        self, rng, monkeypatch, plan_run_rows
    ):
        linear = plan_module.KERNELS["linear"]

        def one_row_rounds_differently(args, params):
            out = linear(args, params)
            return np.nextafter(out, np.inf) if out.shape[0] == 1 else out

        monkeypatch.setitem(plan_module.KERNELS, "linear", one_row_rounds_differently)
        registry = make_registry(n_models=1)
        server = make_server(registry)
        key = "cnn0/wt@0.5"
        engine = registry.engine(key)
        image = images_for(rng, rows=1)
        got = server.predict_logits(key, image)

        licensed = engine.licensed_buckets(ROW_SHAPE)
        assert 1 not in licensed
        # The row shape's one plan served, at the next bucket up.
        plan_key = (ROW_SHAPE, "<f4")
        assert list(engine.plan_stats()) == [plan_key]
        assert registry.resident_plans() == [("cnn0/wt@0.5", plan_key)]
        assert plan_run_rows[-1] == min(licensed)
        # The refused bucket's license run left no scratch behind.
        (plan,) = engine._plans.values()
        rows, held = held_scratch(plan)
        assert 1 not in rows and held == plan.nbytes
        batch = np.concatenate([image, images_for(rng, rows=7)])
        np.testing.assert_array_equal(got, engine.logits(batch)[:1])

    def test_bucket_that_loses_its_license_stays_tracked(
        self, rng, monkeypatch, plan_run_rows
    ):
        """A bucket licensed under one state and refused under the next
        stops serving, its rows come out as the 8-row run computes them,
        and the registry tracks exactly the engine's resident plans."""
        linear = plan_module.KERNELS["linear"]
        drift = {"on": False}

        def buckets_drift(args, params):
            out = linear(args, params)
            return np.nextafter(out, np.inf) if drift["on"] and out.shape[0] < 8 else out

        monkeypatch.setitem(plan_module.KERNELS, "linear", buckets_drift)
        registry = make_registry(n_models=1)
        server = make_server(registry)
        key = "cnn0/wt@0.5"
        engine = registry.engine(key)
        server.predict_logits(key, images_for(rng, rows=3))
        bucket = plan_run_rows[-1]
        assert bucket == min(b for b in engine.licensed_buckets(ROW_SHAPE) if b >= 3)
        if bucket == 8:
            pytest.skip("no bucket below the full width matches it on this BLAS")

        drift["on"] = True
        donor = make_tiny_cnn(seed=21)
        registry.model(key).load_state_dict(donor.state_dict())
        images = images_for(rng, rows=3)
        got = server.predict_logits(key, images)
        assert engine.licensed_buckets(ROW_SHAPE) == [8]
        assert plan_run_rows[-1] == 8
        assert {plan_key for _, plan_key in registry.resident_plans()} == set(
            engine.plan_stats()
        )
        padded = np.concatenate([images, images_for(rng, rows=5)])
        np.testing.assert_array_equal(got, engine.logits(padded)[:3])

    def test_every_bucket_matches_full_width_across_a_state_change(
        self, rng, plan_run_rows
    ):
        """Load a WT-70% state into a served WT-50% model: licenses are
        rechecked under the new state, and every bucket still answers
        bitwise as the 8-row plan does."""
        model = make_tiny_cnn(seed=5)
        build_method("wt").prune(model, 0.5)
        registry = ModelZooRegistry(batch_size=8)
        key = "cnn/wt@0.5"
        registry.register(key, model)
        server = make_server(registry)
        engine = registry.engine(key)
        donor = make_tiny_cnn(seed=6)
        build_method("wt").prune(donor, 0.7)
        for state in (None, donor.state_dict()):
            if state is not None:
                model.load_state_dict(state)
            buckets = set()
            for rows in range(1, 9):
                images = images_for(rng, rows=rows)
                got = server.predict_logits(key, images)
                licensed = engine.licensed_buckets(ROW_SHAPE)
                assert plan_run_rows[-1] == min(b for b in licensed if b >= rows)
                buckets.add(plan_run_rows[-1])
                padded = np.concatenate([images, images_for(rng, rows=8 - rows)])
                np.testing.assert_array_equal(got, engine.logits(padded)[:rows])
            assert buckets == set(engine.licensed_buckets(ROW_SHAPE))
            assert list(engine.plan_stats()) == [(ROW_SHAPE, "<f4")]
