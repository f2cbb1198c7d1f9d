"""Declarative method registry: spec grammar, round-trips, prune behavior.

The property every downstream cache relies on: any accepted spelling of a
method configuration maps onto exactly one canonical spec string, that
string rebuilds an equivalent method, and a live instance serializes back
to the same string.
"""

import numpy as np
import pytest

from repro.pruning import (
    HyperParam,
    SpecError,
    available_methods,
    available_specs,
    build_method,
    canonical_spec,
    describe_methods,
    method_spec,
    model_prune_ratio,
    parse_spec,
    register_method,
    spec_of,
)
from repro.pruning.base import PruneMethod
from repro.pruning.mask import prunable_layers
from repro.pruning.registry import unregister_method
from repro.verify.invariants import (
    check_mask_weight_consistency,
    check_prune_accounting,
    check_structured_masks,
)

from tests.conftest import make_tiny_cnn

ALL_METHODS = available_methods()


def sample_batch(seed=0, shape=(8, 3, 8, 8)):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def prune_with(name, model, target, **kwargs):
    method = build_method(name, **kwargs)
    sample = sample_batch() if method.data_informed else None
    return method, method.prune(model, target, sample)


class TestSpecGrammar:
    def test_bare_name(self):
        assert parse_spec("wt") == ("wt", {})

    def test_name_case_insensitive(self):
        assert parse_spec("WT") == ("wt", {})
        assert parse_spec("LowRank(rank_frac=0.25)") == (
            "lowrank", {"rank_frac": 0.25}
        )

    def test_kwargs_are_literals(self):
        name, kwargs = parse_spec("random(seed=3, steps=2)")
        assert name == "random"
        assert kwargs == {"seed": 3, "steps": 2}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "wt(",
            "wt)",
            "1wt",
            "wt(0.5)",  # positional
            "wt(seed=**x)",
            "wt(seed=f())",  # call, not a literal
            "wt(seed=seed)",  # name, not a literal
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_non_string_raises(self):
        with pytest.raises(SpecError, match="spec must be a string"):
            parse_spec(None)


class TestCanonical:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_defaults_collapse_to_bare_name(self, name):
        spec = method_spec(name)
        assert canonical_spec(name) == name
        # Spelling every default explicitly is still the bare name.
        assert canonical_spec(name, **spec.defaults()) == name

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_canonical_is_idempotent(self, name):
        once = canonical_spec(name)
        assert canonical_spec(once) == once

    def test_non_default_kwargs_sorted(self):
        assert canonical_spec("lowrank", steps=2, rank_frac=0.25) == (
            "lowrank(rank_frac=0.25, steps=2)"
        )
        assert canonical_spec("lowrank(steps=2, rank_frac=0.25)") == (
            "lowrank(rank_frac=0.25, steps=2)"
        )

    def test_distinct_settings_distinct_strings(self):
        seen = {
            canonical_spec("lowrank", rank_frac=f)
            for f in (0.125, 0.25, 0.5, 0.75, 1.0)
        }
        assert len(seen) == 5

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_instance_round_trips_through_spec_string(self, name):
        spec = method_spec(name)
        # Perturb every numeric hyperparameter off its default.
        kwargs = {}
        for hp in spec.hyperparams:
            if hp.kind is int:
                kwargs[hp.name] = hp.default + 1
            elif hp.kind is float:
                kwargs[hp.name] = hp.default / 2
            elif hp.kind is bool:
                kwargs[hp.name] = not hp.default
        method = build_method(name, **kwargs)
        text = spec_of(method)
        rebuilt = build_method(text)
        assert spec_of(rebuilt) == text
        assert rebuilt.hyperparameters() == method.hyperparameters()


class TestValidation:
    def test_unknown_method_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown pruning method"):
            build_method("magnitude")

    def test_unknown_hyperparameter(self):
        with pytest.raises(SpecError, match="no hyperparameter"):
            build_method("wt", gamma=0.5)

    def test_wrong_type_rejected(self):
        with pytest.raises(SpecError, match="expects int"):
            build_method("random", seed=0.5)
        with pytest.raises(SpecError, match="expects float"):
            build_method("lowrank", rank_frac=True)
        with pytest.raises(SpecError, match="expects bool"):
            build_method("lowrank", project=1)

    def test_bounds_enforced(self):
        with pytest.raises(SpecError, match="steps"):
            build_method("wt", steps=0)
        with pytest.raises(SpecError, match="rank_frac"):
            build_method("lowrank", rank_frac=0.0)  # low-open bound
        with pytest.raises(SpecError, match="gamma"):
            build_method("pfp", gamma=1.0)  # high-open bound

    def test_explicit_kwargs_override_spec_string(self):
        method = build_method("random(seed=1)", seed=9)
        assert method.seed == 9


class TestRegistration:
    def test_duplicate_name_raises(self):
        with pytest.raises(SpecError, match="already registered"):

            @register_method("wt", scoring="magnitude", allocation="global")
            class Dup(PruneMethod):
                def _prune_step(self, model, target_ratio, sample_inputs):
                    return 0.0

    def test_register_and_unregister_ad_hoc_method(self):
        @register_method(
            "everyother",
            scoring="magnitude",
            allocation="uniform",
            hyperparams=(HyperParam("phase", int, 0, low=0, high=1),),
        )
        class EveryOther(PruneMethod):
            """Masks alternating weights (test-only)."""

            def __init__(self, phase=0, steps=1):
                super().__init__(steps=steps)
                self.phase = phase

            def _prune_step(self, model, target_ratio, sample_inputs):
                for _, layer in prunable_layers(model):
                    mask = np.ones(layer.weight.size, dtype=np.float32)
                    mask[self.phase :: 2] = 0.0
                    layer.set_weight_mask(
                        mask.reshape(layer.weight.shape) * layer.weight_mask
                    )
                return model_prune_ratio(model)

        try:
            assert "everyother" in available_methods()
            method = build_method("everyother(phase=1)")
            assert spec_of(method) == "everyother(phase=1)"
            model = make_tiny_cnn()
            assert method.prune(model, 0.0) == pytest.approx(0.5, abs=0.01)
        finally:
            unregister_method("everyother")
        assert "everyother" not in available_methods()

    def test_invalid_axes_rejected(self):
        with pytest.raises(SpecError, match="scoring"):

            @register_method("badaxis", scoring="vibes", allocation="global")
            class Bad(PruneMethod):
                def _prune_step(self, model, target_ratio, sample_inputs):
                    return 0.0


class TestPruneBehavior:
    TARGET = 0.5

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_reaches_target_within_tolerance(self, name):
        model = make_tiny_cnn()
        method, achieved = prune_with(name, model, self.TARGET)
        # Structured methods quantize to whole channels; unstructured ones
        # only to per-layer rounding.
        tol = 0.15 if method.structured else 0.02
        assert achieved == pytest.approx(self.TARGET, abs=tol)
        assert model_prune_ratio(model) == pytest.approx(achieved)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_invariants_after_prune(self, name):
        model = make_tiny_cnn()
        method, achieved = prune_with(name, model, self.TARGET)
        report = check_mask_weight_consistency(model)
        report = check_prune_accounting(model, achieved, report=report)
        if method.structured:
            report = check_structured_masks(model, report=report)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_steps_schedule_reaches_same_target(self, name):
        model = make_tiny_cnn()
        _, achieved = prune_with(name, model, self.TARGET, steps=3)
        tol = 0.15 if method_spec(name).structured else 0.02
        assert achieved == pytest.approx(self.TARGET, abs=tol)

    def test_steps_are_monotone(self):
        model = make_tiny_cnn()
        ratios = []
        method = build_method("wt", steps=4)
        original = method._prune_step

        def recording(model_, target, sample):
            achieved = original(model_, target, sample)
            ratios.append(achieved)
            return achieved

        method._prune_step = recording
        method.prune(model, 0.8)
        assert len(ratios) == 4
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(0.8, abs=0.01)


class TestRisingTargets:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_target_inside_the_last_overshoot_is_met(self, name):
        """Rounding takes a prune past its target; a rising target that
        lands inside that overshoot is already met, not a monotonicity
        violation, and a falling one still is."""
        overshot = 0
        for first in np.linspace(0.05, 0.7, 15):
            model = make_tiny_cnn()
            method = build_method(name)
            sample = sample_batch() if method.data_informed else None
            achieved = method.prune(model, first, sample)
            overshot += achieved > first
            masks = [layer.weight_mask.copy() for _, layer in prunable_layers(model)]
            for target in (first + (achieved - first) / 2, achieved + 0.05):
                reached = method.prune(model, target, sample)
                assert reached >= achieved
                after = [layer.weight_mask for _, layer in prunable_layers(model)]
                for before, now in zip(masks, after):
                    assert not ((before == 0) & (now == 1)).any(), "mask revived"
                masks, achieved = [m.copy() for m in after], reached
            if achieved > first:
                with pytest.raises(ValueError, match="monotone"):
                    method.prune(model, first, sample)
        assert overshot, "no first target overshot; nothing was tested"


class TestDescribe:
    def test_table_lists_every_method(self):
        text = describe_methods()
        for name in ALL_METHODS:
            assert name in text

    def test_available_specs_sorted_and_complete(self):
        specs = available_specs()
        assert [s.name for s in specs] == ALL_METHODS
        for spec in specs:
            # Every spec carries the shared schedule knob.
            assert any(hp.name == "steps" for hp in spec.hyperparams)
