"""Robust pruning: trade explicit regularization for lost implicit
regularization (Section 6 of the paper).

Compares two WT prune-retrain pipelines on the same architecture:

- *nominal*: standard training and retraining;
- *robust*: every (re-)training batch is corrupted with a random
  train-distribution corruption (Table 11 protocol).

and reports the prune potential of each on corruptions from the train
distribution and from the held-out test distribution.

    python examples/robust_pruning.py
"""

import numpy as np

from repro.analysis import evaluate_curve
from repro.experiments import SMOKE, ZooSpec, get_prune_run, make_model, make_suite
from repro.training import default_robust_protocol
from repro.utils.tables import format_table

DELTA = 0.005


def potentials_for(run, model, suite, corruptions, severity):
    datasets = [suite.corrupted_test_set(name, severity) for name in corruptions]
    curves = evaluate_curve(run, model, datasets, suite.normalizer())
    return {name: curve.potential(DELTA) for name, curve in zip(corruptions, curves)}


def main() -> None:
    scale = SMOKE
    suite = make_suite("cifar", scale)
    protocol = default_robust_protocol(scale.severity)

    print("building (or loading) nominal and robust WT pipelines ...")
    runs = {}
    for robust in (False, True):
        spec = ZooSpec("cifar", "resnet20", "wt", repetition=0, robust=robust)
        runs[robust] = (get_prune_run(spec, scale), make_model(spec, suite, scale))

    # Evaluate on two train-dist and two test-dist corruptions.
    probe_train = list(protocol.train_corruptions[:2])
    probe_test = list(protocol.test_corruptions[:2])

    rows = []
    summary = {}
    for robust, (run, model) in runs.items():
        label = "robust" if robust else "nominal"
        pot = potentials_for(
            run, model, suite, probe_train + probe_test, scale.severity
        )
        summary[label] = pot
        for name, p in pot.items():
            side = "train-dist" if name in probe_train else "test-dist (held out)"
            rows.append([label, name, side, f"{100 * p:.0f}"])

    print()
    print(
        format_table(
            ["Training", "Corruption", "Corruption side", "Prune potential (%)"],
            rows,
            title="Fig. 8 in miniature — potential with and without robust training",
        )
    )

    gain_train = np.mean(
        [summary["robust"][c] - summary["nominal"][c] for c in probe_train]
    )
    gain_test = np.mean(
        [summary["robust"][c] - summary["nominal"][c] for c in probe_test]
    )
    print(f"\naverage potential gained by robust training:")
    print(f"  on corruptions included in training:  {100 * gain_train:+.0f} points")
    print(f"  on held-out corruptions:              {100 * gain_test:+.0f} points")
    print(
        "\nthe paper's reading: data augmentation supplies *explicit* "
        "regularization that substitutes for the implicit regularization "
        "pruning removes — but only for shifts you can model at training time."
    )


if __name__ == "__main__":
    main()
