"""Static validity of the benchmark zoo manifest (no training involved)."""

from repro.experiments.zoo import BENCH_ZOO
from repro.models import available_models
from repro.pruning import available_methods


class TestZooManifest:
    def test_entries_reference_real_models_and_methods(self):
        tasks = {"cifar", "imagenet", "voc"}
        for task, model, method, reps, robust in BENCH_ZOO:
            assert task in tasks
            assert model in available_models(), model
            assert method in available_methods(), method
            assert reps >= 1
            assert isinstance(robust, bool)

    def test_covers_all_methods_on_cifar(self):
        cifar_methods = {
            method for task, _, method, _, robust in BENCH_ZOO
            if task == "cifar" and not robust
        }
        assert cifar_methods == set(available_methods())

    def test_covers_all_tasks(self):
        assert {t for t, *_ in BENCH_ZOO} == {"cifar", "imagenet", "voc"}
