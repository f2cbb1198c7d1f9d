"""Prune potential (Definition 1) extraction."""

import numpy as np
import pytest

from repro.analysis.prune_potential import (
    PruneAccuracyCurve,
    prune_potential_from_curve,
)


class TestFromCurve:
    def test_max_commensurate_ratio(self):
        ratios = np.array([0.3, 0.6, 0.9])
        errors = np.array([0.10, 0.104, 0.20])
        assert prune_potential_from_curve(ratios, errors, 0.10, delta=0.005) == 0.6

    def test_zero_when_nothing_commensurate(self):
        assert (
            prune_potential_from_curve(
                np.array([0.3, 0.6]), np.array([0.5, 0.6]), 0.1, delta=0.005
            )
            == 0.0
        )

    def test_full_when_all_commensurate(self):
        assert (
            prune_potential_from_curve(
                np.array([0.3, 0.9]), np.array([0.1, 0.1]), 0.1, delta=0.005
            )
            == 0.9
        )

    def test_non_monotone_curve_takes_max_qualifying(self):
        # A dip then recovery: the max qualifying ratio wins even if an
        # intermediate ratio fails (per Definition 1's max over c).
        ratios = np.array([0.3, 0.6, 0.9])
        errors = np.array([0.1, 0.5, 0.1])
        assert prune_potential_from_curve(ratios, errors, 0.1, delta=0.005) == 0.9

    def test_delta_zero_strict(self):
        ratios = np.array([0.5])
        assert prune_potential_from_curve(ratios, np.array([0.1001]), 0.1, delta=0.0) == 0.0
        assert prune_potential_from_curve(ratios, np.array([0.0999]), 0.1, delta=0.0) == 0.5

    def test_larger_delta_larger_potential(self):
        ratios = np.array([0.3, 0.6, 0.9])
        errors = np.array([0.10, 0.12, 0.18])
        p = [prune_potential_from_curve(ratios, errors, 0.1, d) for d in (0.0, 0.03, 0.1)]
        assert p[0] <= p[1] <= p[2]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            prune_potential_from_curve(np.array([0.3]), np.array([0.1, 0.2]), 0.1)

    def test_negative_delta_raises(self):
        with pytest.raises(ValueError, match="delta"):
            prune_potential_from_curve(np.array([0.3]), np.array([0.1]), 0.1, delta=-0.1)


class TestCurveObject:
    def test_potential_method(self):
        curve = PruneAccuracyCurve(
            distribution="d",
            ratios=np.array([0.5, 0.8]),
            errors=np.array([0.1, 0.3]),
            parent_error=0.1,
        )
        assert curve.potential(0.005) == 0.5
        assert curve.potential(0.5) == 0.8


class TestEvaluateCurvePreservesState:
    """Regression: the curve sweep swaps checkpoint weights into the caller's
    model; it must restore the exact prior state, also when evaluation dies
    mid-sweep."""

    @staticmethod
    def _fixture(seed_probe=1, seed_run=2):
        from tests.conftest import make_tiny_cnn, make_tiny_suite
        from repro.pruning import PruneRun
        from repro.pruning.pipeline import PruneCheckpoint

        suite = make_tiny_suite(seed=3, n_train=32, n_test=16)
        probe = make_tiny_cnn(seed=seed_probe)
        donor = make_tiny_cnn(seed=seed_run)
        run = PruneRun(
            "wt",
            parent_state=donor.state_dict(),
            checkpoints=[
                PruneCheckpoint(
                    target_ratio=0.5,
                    achieved_ratio=0.5,
                    test_error=0.0,
                    state=donor.state_dict(),
                )
            ],
        )
        return suite, probe, run

    def test_state_bit_identical_after_sweep(self):
        from repro.analysis.prune_potential import evaluate_curve

        suite, probe, run = self._fixture()
        before = probe.state_dict()
        evaluate_curve(run, probe, [suite.test_set()], suite.normalizer())
        after = probe.state_dict()
        assert set(before) == set(after)
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_state_restored_on_mid_sweep_exception(self):
        from repro.analysis.prune_potential import evaluate_curve

        suite, probe, run = self._fixture()
        before = probe.state_dict()

        def explode(x):
            raise RuntimeError("evaluation died")

        with pytest.raises(RuntimeError, match="evaluation died"):
            evaluate_curve(
                run, probe, [suite.test_set()], suite.normalizer(), transform=explode
            )
        after = probe.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)


class TestEvaluateCurveManyDatasets:
    """One checkpoint-outer sweep over several datasets gives, per
    dataset, the curve a one-dataset sweep gives, bitwise."""

    def test_each_curve_equals_its_single_dataset_sweep(self):
        from repro.analysis.prune_potential import evaluate_curve

        suite, probe, run = TestEvaluateCurvePreservesState._fixture()
        datasets = [
            suite.test_set(),
            suite.corrupted_test_set("gaussian_noise", 3),
            suite.test_set().subset(np.arange(5), name="first5"),
        ]
        curves = evaluate_curve(run, probe, datasets, suite.normalizer())
        assert [c.distribution for c in curves] == [d.name for d in datasets]
        for dataset, curve in zip(datasets, curves):
            [alone] = evaluate_curve(run, probe, [dataset], suite.normalizer())
            np.testing.assert_array_equal(curve.errors, alone.errors)
            assert curve.parent_error == alone.parent_error
            np.testing.assert_array_equal(curve.ratios, run.ratios)


class TestEvaluateCurveIntegration:
    def test_on_trained_model(self, trained_setup):
        from repro.analysis.prune_potential import evaluate_curve, prune_potential
        from repro.pruning import PruneRetrain, WeightThresholding

        model, suite, trainer = trained_setup
        state_before = model.state_dict()
        pipeline = PruneRetrain(trainer, WeightThresholding(), retrain_epochs=1)
        run = pipeline.run(target_ratios=[0.4, 0.8])
        # Restore the shared fixture model afterwards.
        try:
            from tests.conftest import make_tiny_cnn

            probe = make_tiny_cnn(seed=1)
            [curve] = evaluate_curve(run, probe, [suite.test_set()], suite.normalizer())
            assert curve.errors.shape == (2,)
            assert curve.parent_error == pytest.approx(run.parent_test_error, abs=1e-6)
            pot = prune_potential(run, probe, suite.test_set(), suite.normalizer(), delta=1.0)
            assert pot == pytest.approx(run.ratios.max())
        finally:
            model.load_state_dict(state_before)
