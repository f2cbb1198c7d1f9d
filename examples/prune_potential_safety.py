"""Safety-critical deployment check: is the nominal prune ratio safe?

The paper's central warning (Section 5): a prune ratio that preserves
*test accuracy* can destroy accuracy under distribution shift.  This
example plays out the workflow its Section 7 guidelines prescribe for a
practitioner about to deploy a pruned perception model:

1. prune to the nominal potential,
2. re-evaluate the potential on a *hold-out distribution* (corruptions),
3. apply the paper's guidelines to pick a deployment prune ratio.

    python examples/prune_potential_safety.py
"""

import numpy as np

from repro.analysis import evaluate_curve
from repro.experiments import SMOKE, ZooSpec, get_prune_run, make_model, make_suite
from repro.utils.tables import format_table

# Corruptions standing in for "conditions we might see on the road".
DEPLOYMENT_SHIFTS = ["gaussian_noise", "fog", "brightness", "motion_blur", "jpeg"]
DELTA = 0.005


def main() -> None:
    scale = SMOKE
    suite = make_suite("cifar", scale)
    spec = ZooSpec("cifar", "resnet20", "wt", repetition=0)
    print("training (or loading) the WT prune-retrain pipeline ...")
    run = get_prune_run(spec, scale)
    model = make_model(spec, suite, scale)
    normalizer = suite.normalizer()

    # Potential per distribution: one sweep swaps each checkpoint in once
    # and evaluates it on every distribution.
    rows = []
    potentials = {}
    datasets = {"nominal": suite.test_set(), "shifted (CIFAR10.1 role)": suite.shifted_test_set()}
    datasets.update(
        {c: suite.corrupted_test_set(c, scale.severity) for c in DEPLOYMENT_SHIFTS}
    )
    curves = evaluate_curve(run, model, list(datasets.values()), normalizer)
    for name, curve in zip(datasets, curves):
        potentials[name] = curve.potential(DELTA)
        rows.append(
            [
                name,
                f"{100 * curve.parent_error:.1f}",
                f"{100 * potentials[name]:.0f}",
            ]
        )
    print()
    print(
        format_table(
            ["Distribution", "Parent err (%)", "Prune potential (%)"],
            rows,
            title="Prune potential per deployment condition",
        )
    )

    nominal = potentials["nominal"]
    worst = min(potentials.values())
    worst_name = min(potentials, key=potentials.get)

    print(f"\nnominal potential: {100 * nominal:.0f}%")
    print(f"worst-case potential: {100 * worst:.0f}% (under {worst_name})")

    # The paper's guidelines (Section 1):
    print("\nrecommendation per the paper's guidelines:")
    if worst >= 0.9 * nominal:
        print(
            "  (3) All anticipated shifts retain the nominal potential — "
            f"prune to the full extent ({100 * nominal:.0f}%)."
        )
    elif worst > 0:
        print(
            "  (2) Partial knowledge of shifts: prune moderately — deploy at "
            f"the worst-case potential ({100 * worst:.0f}%), not the nominal "
            f"({100 * nominal:.0f}%)."
        )
    else:
        print(
            "  (1) Some anticipated condition tolerates no pruning at all "
            f"({worst_name}): don't prune, or add that condition to "
            "(re-)training first (guideline 4, see robust_pruning.py)."
        )


if __name__ == "__main__":
    main()
