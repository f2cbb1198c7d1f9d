"""Robust-training experiments (Section 6, Fig. 8, Appendix E).

Networks are trained *and retrained* with the Table-11 corruption
augmentation; evaluation separates corruptions seen during training (train
distribution) from held-out ones (test distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.experiments.config import ExperimentScale
from repro.experiments.corruption_study import (
    CorruptionPotentialResult,
    ExcessErrorStudyResult,
    corruption_excess_error_experiment,
    corruption_potential_experiment,
)
from repro.training.robust import RobustProtocol, default_robust_protocol


@dataclass
class RobustPotentialResult:
    """Fig. 8b: potential split into train-dist vs test-dist corruptions."""

    base: CorruptionPotentialResult
    protocol: RobustProtocol

    def train_dist_potentials(self) -> np.ndarray:
        """(R, |train corruptions| + 1) including nominal data."""
        names = ["nominal", *self.protocol.train_corruptions]
        cols = [self.base.distributions.index(n) for n in names]
        return self.base.potentials[:, cols]

    def test_dist_potentials(self) -> np.ndarray:
        """(R, |test corruptions| + 1) including the shifted set (CIFAR10.1 role)."""
        names = [*self.protocol.test_corruptions]
        if "shifted" in self.base.distributions:
            names = ["shifted", *names]
        cols = [self.base.distributions.index(n) for n in names]
        return self.base.potentials[:, cols]


def robust_potential_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    protocol: RobustProtocol | None = None,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> RobustPotentialResult:
    """Per-corruption potential of robustly (re-)trained networks."""
    protocol = protocol or default_robust_protocol(scale.severity)
    corruptions = [*protocol.train_corruptions, *protocol.test_corruptions]
    with observe.span(
        "robust_potential", task=task_name, model=model_name, method=method_name
    ):
        base = corruption_potential_experiment(
            task_name, model_name, method_name, scale,
            corruptions=corruptions, robust=True, jobs=jobs,
            on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
        )
    return RobustPotentialResult(base=base, protocol=protocol)


def robust_excess_error_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    protocol: RobustProtocol | None = None,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> ExcessErrorStudyResult:
    """``ê − e`` of robustly trained networks over the held-out corruptions."""
    protocol = protocol or default_robust_protocol(scale.severity)
    with observe.span(
        "robust_excess_error", task=task_name, model=model_name, method=method_name
    ):
        return corruption_excess_error_experiment(
            task_name,
            model_name,
            method_name,
            scale,
            corruptions=list(protocol.test_corruptions),
            robust=True,
            jobs=jobs,
            on_error=on_error,
            max_retries=max_retries,
            cell_timeout=cell_timeout,
        )
