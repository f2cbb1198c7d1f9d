"""End-to-end integration: train → prune → analyze, asserting coherence
between the library's subsystems (the full paper pipeline in miniature)."""

import numpy as np
import pytest

from repro.analysis import (
    evaluate_curve,
    excess_error_difference,
    noise_similarity,
    prune_potential,
    summarize_potentials,
)
from repro.nn.flops import flop_reduction
from repro.pruning import PruneRetrain, build_method, model_prune_ratio

from tests.conftest import make_tiny_cnn, make_tiny_suite, make_tiny_trainer

pytestmark = pytest.mark.tier2


@pytest.fixture(scope="module")
def pipeline_artifacts():
    """One full WT prune–retrain pipeline on a trained tiny CNN."""
    suite = make_tiny_suite(seed=8, n_train=160, n_test=96)
    model = make_tiny_cnn(seed=8)
    trainer = make_tiny_trainer(model, suite, epochs=4, seed=8)
    trainer.train()
    pipeline = PruneRetrain(trainer, build_method("wt"), retrain_epochs=1)
    run = pipeline.run(target_ratios=[0.3, 0.6, 0.9])
    return run, suite, trainer


class TestPipelineCoherence:
    def test_final_model_matches_last_checkpoint(self, pipeline_artifacts):
        run, suite, trainer = pipeline_artifacts
        assert model_prune_ratio(trainer.model) == pytest.approx(0.9, abs=0.01)
        assert trainer.evaluate()["error"] == pytest.approx(
            run.checkpoints[-1].test_error, abs=1e-9
        )

    def test_curve_reproduces_recorded_errors(self, pipeline_artifacts):
        run, suite, _ = pipeline_artifacts
        probe = make_tiny_cnn(seed=8)
        [curve] = evaluate_curve(run, probe, [suite.test_set()], suite.normalizer())
        np.testing.assert_allclose(curve.errors, run.test_errors, atol=1e-9)
        np.testing.assert_allclose(curve.parent_error, run.parent_test_error, atol=1e-9)

    def test_flop_reduction_grows_with_ratio(self, pipeline_artifacts):
        run, suite, _ = pipeline_artifacts
        parent = make_tiny_cnn(seed=8)
        run.restore_parent(parent)
        frs = []
        for i in range(len(run.checkpoints)):
            pruned = make_tiny_cnn(seed=8)
            run.restore(pruned, i)
            frs.append(flop_reduction(pruned, parent, suite.input_shape))
        assert frs[0] < frs[1] < frs[2]
        assert 0 < frs[0] and frs[2] < 1

    def test_prune_potential_consistent_with_curve(self, pipeline_artifacts):
        run, suite, _ = pipeline_artifacts
        probe = make_tiny_cnn(seed=8)
        p_tight = prune_potential(run, probe, suite.test_set(), suite.normalizer(), delta=0.0)
        p_loose = prune_potential(run, probe, suite.test_set(), suite.normalizer(), delta=1.0)
        assert p_loose == pytest.approx(0.9, abs=0.01)
        assert p_tight <= p_loose

    def test_noise_potential_not_above_nominal_when_noise_huge(self, pipeline_artifacts):
        """With overwhelming noise every network is at chance: potential is
        whatever ratio still 'matches' the (also at-chance) parent — the key
        sanity check is that evaluation runs and stays in range."""
        run, suite, _ = pipeline_artifacts
        probe = make_tiny_cnn(seed=8)
        rng = np.random.default_rng(0)
        p = prune_potential(
            run,
            probe,
            suite.test_set(),
            suite.normalizer(),
            delta=0.005,
            transform=lambda x: x + rng.uniform(-5, 5, x.shape).astype(x.dtype),
        )
        assert 0.0 <= p <= run.ratios.max() + 1e-9

    def test_excess_error_difference_zero_at_identity(self, pipeline_artifacts):
        run, suite, _ = pipeline_artifacts
        probe = make_tiny_cnn(seed=8)
        ood = [suite.corrupted_test_set("gaussian_noise", 3)]
        result = excess_error_difference(run, probe, suite.test_set(), ood, suite.normalizer())
        assert result.ratios.shape == result.differences.shape
        assert np.isfinite(result.differences).all()

    def test_functional_similarity_decreases_with_ratio(self, pipeline_artifacts):
        """Matching predictions vs parent should not increase as we prune
        harder (allowing small nonmonotonicity tolerance)."""
        run, suite, _ = pipeline_artifacts
        parent = make_tiny_cnn(seed=8)
        run.restore_parent(parent)
        images = suite.normalizer()(suite.test_set().images[:48])
        rates = []
        for i in range(len(run.checkpoints)):
            pruned = make_tiny_cnn(seed=8)
            run.restore(pruned, i)
            rates.append(
                noise_similarity(parent, pruned, images, eps=0.05, n_trials=2, rng=0).match_rate
            )
        assert rates[-1] <= rates[0] + 0.1

    def test_overparam_summary_composes(self, pipeline_artifacts):
        run, suite, _ = pipeline_artifacts
        probe = make_tiny_cnn(seed=8)
        potentials = [
            prune_potential(run, probe, suite.test_set(), suite.normalizer(), delta=0.02),
            prune_potential(
                run,
                probe,
                suite.corrupted_test_set("gaussian_noise", 5),
                suite.normalizer(),
                delta=0.02,
            ),
        ]
        summary = summarize_potentials(np.array([potentials]))
        assert summary.minimum_mean <= summary.average_mean


class TestSegmentationEndToEnd:
    def test_prune_retrain_on_dense_task(self):
        from repro.data import voc_like
        from repro.models import deeplab_small
        from repro.training import TrainConfig, Trainer

        suite = voc_like(seed=3, n_train=24, n_test=12, image_size=16)
        model = deeplab_small(num_classes=suite.num_classes, base_width=4, rng=3)
        trainer = Trainer(
            model, suite, TrainConfig(epochs=1, batch_size=8, lr=0.02, warmup_epochs=0, seed=3)
        )
        trainer.train()
        run = PruneRetrain(trainer, build_method("pfp"), retrain_epochs=1).run(
            target_ratios=[0.3]
        )
        assert run.checkpoints[0].achieved_ratio >= 0.3
        assert 0 <= run.checkpoints[0].test_error <= 1
