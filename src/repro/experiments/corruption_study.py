"""Corruption experiments: per-corruption prune potential (Fig. 6b/6e, 7,
Appendix D.2/D.3) and the difference in excess error (Fig. 6c/6f, D.5).

The (repetition × distribution) evaluation grid is embarrassingly
parallel, so it runs through :func:`~repro.experiments.grid.run_grid`;
``jobs`` (or ``REPRO_NUM_WORKERS``) controls the fan-out and ``jobs=1``
reproduces the serial path bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import observe
from repro.analysis.prune_potential import PruneAccuracyCurve, evaluate_curve
from repro.analysis.regression import bootstrap_slope_ci, ols_slope_through_origin
from repro.data.corruptions import available_corruptions
from repro.data.datasets import Dataset, TaskSuite
from repro.experiments.config import ExperimentScale
from repro.experiments.grid import run_grid
from repro.experiments.memo import memoize
from repro.experiments.zoo import (
    ZooSpec,
    cached_suite,
    get_prune_run,
    make_suite,
    scoped_model,
)
from repro.parallel import CellTiming, GridTiming
from repro.pruning import canonical_spec

# A distribution spec is a compact, picklable recipe for one evaluation
# set: ("nominal",), ("shifted",), or ("corruption", name, severity).
DistributionSpec = tuple


def distribution_specs(
    suite: TaskSuite,
    scale: ExperimentScale,
    corruptions: Sequence[str] | None = None,
    include_shifted: bool = True,
) -> list[tuple[str, DistributionSpec]]:
    """Named evaluation distributions: nominal + shifted + corruptions."""
    names = list(corruptions) if corruptions is not None else available_corruptions()
    specs: list[tuple[str, DistributionSpec]] = [("nominal", ("nominal",))]
    if include_shifted and not suite.is_segmentation:
        specs.append(("shifted", ("shifted",)))
    specs.extend((n, ("corruption", n, scale.severity)) for n in names)
    return specs


def _distribution_dataset(suite: TaskSuite, dist_spec: DistributionSpec) -> Dataset:
    kind = dist_spec[0]
    if kind == "nominal":
        return suite.test_set()
    if kind == "shifted":
        return suite.shifted_test_set()
    if kind == "corruption":
        _, name, severity = dist_spec
        return suite.corrupted_test_set(name, severity)
    raise ValueError(f"unknown distribution spec {dist_spec!r}")


def corruption_datasets(
    suite: TaskSuite,
    scale: ExperimentScale,
    corruptions: Sequence[str] | None = None,
    include_shifted: bool = True,
) -> dict[str, Dataset]:
    """Named evaluation distributions as materialized datasets."""
    return {
        name: _distribution_dataset(suite, spec)
        for name, spec in distribution_specs(suite, scale, corruptions, include_shifted)
    }


def _curve_cell(payload) -> tuple[int, str, PruneAccuracyCurve, CellTiming]:
    """Evaluate one (repetition, distribution) grid cell (worker-side)."""
    task_name, model_name, method_name, scale, robust, rep, name, dist_spec = payload
    t0 = time.perf_counter()
    with observe.span(
        "eval_cell", grid="corruption", rep=rep, distribution=name
    ):
        suite = cached_suite(task_name, scale)
        dataset = _distribution_dataset(suite, dist_spec)
        spec = ZooSpec(task_name, model_name, method_name, rep, robust)
        run = get_prune_run(spec, scale)
        model = scoped_model(spec, suite, scale)
        curve = evaluate_curve(run, model, dataset, suite.normalizer())
    observe.incr("eval.cells")
    timing = CellTiming(
        key=f"rep{rep}/{name}", seconds=time.perf_counter() - t0
    )
    return rep, name, curve, timing


def _evaluate_grid(
    label: str,
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    robust: bool,
    named_specs: list[tuple[str, DistributionSpec]],
    **knobs,
) -> tuple[dict[tuple[int, str], PruneAccuracyCurve], GridTiming]:
    """The (repetition × distribution) curves of one zoo spec, by
    ``(rep, name)``; a cell that died under ``on_error="collect"`` has
    no entry (see :func:`~repro.experiments.grid.run_grid`)."""
    cells = [
        (
            ZooSpec(task_name, model_name, method_name, rep, robust),
            f"rep{rep}/{name}",
            (task_name, model_name, method_name, scale, robust, rep, name, dist_spec),
        )
        for rep in range(scale.n_repetitions)
        for name, dist_spec in named_specs
    ]
    results, timing = run_grid(label, _curve_cell, cells, scale, **knobs)
    curves = {(rep, name): curve for rep, name, curve, _ in filter(None, results)}
    return curves, timing


@dataclass
class CorruptionPotentialResult:
    """Prune potential per distribution (Fig. 6b/6e bars)."""

    task_name: str
    model_name: str
    method_name: str
    distributions: list[str]
    potentials: np.ndarray  # (R, D)
    curves: dict[str, list[PruneAccuracyCurve]]  # per distribution, per rep
    timing: GridTiming | None = None

    @property
    def mean(self) -> np.ndarray:
        return self.potentials.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.potentials.std(axis=0)

    def potential_of(self, distribution: str) -> np.ndarray:
        return self.potentials[:, self.distributions.index(distribution)]


@memoize(
    ignore=("jobs", "max_retries", "cell_timeout", "executor", "queue_dir"),
    normalize={"method_name": canonical_spec},
)
def corruption_potential_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    corruptions: Sequence[str] | None = None,
    robust: bool = False,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    executor: str | None = None,
    queue_dir: str | Path | None = None,
) -> CorruptionPotentialResult:
    """Prune potential on nominal, shifted, and every corrupted test set.

    Under ``on_error="collect"`` a failed cell becomes a NaN in
    ``potentials`` and a ``None`` hole in its ``curves`` list (keeping
    the per-repetition indices aligned); the failures live on
    ``timing.failures``.
    """
    suite = make_suite(task_name, scale)
    named_specs = distribution_specs(suite, scale, corruptions)
    names = [n for n, _ in named_specs]
    grid, timing = _evaluate_grid(
        f"corruption_potential[{task_name}/{model_name}/{method_name}]",
        task_name, model_name, method_name, scale, robust, named_specs, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
        executor=executor, queue_dir=queue_dir,
    )
    potentials = np.full((scale.n_repetitions, len(names)), np.nan)
    curves: dict[str, list[PruneAccuracyCurve]] = {n: [] for n in names}
    for rep in range(scale.n_repetitions):
        for di, dist_name in enumerate(names):
            curve = grid.get((rep, dist_name))
            curves[dist_name].append(curve)
            if curve is not None:
                potentials[rep, di] = curve.potential(scale.delta)
    return CorruptionPotentialResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        distributions=names,
        potentials=potentials,
        curves=curves,
        timing=timing,
    )


@dataclass
class SeveritySweepResult:
    """Prune potential per corruption severity level (an ablation on the
    paper's fixed choice of severity 3)."""

    task_name: str
    model_name: str
    method_name: str
    corruption: str
    severities: tuple[int, ...]
    potentials: np.ndarray  # (R, S)
    timing: GridTiming | None = None

    @property
    def mean(self) -> np.ndarray:
        return self.potentials.mean(axis=0)


@memoize(
    ignore=("jobs", "max_retries", "cell_timeout", "executor", "queue_dir"),
    normalize={"method_name": canonical_spec},
)
def severity_sweep_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    corruption: str = "gaussian_noise",
    severities: tuple[int, ...] = (1, 2, 3, 4, 5),
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    executor: str | None = None,
    queue_dir: str | Path | None = None,
) -> SeveritySweepResult:
    """Prune potential of one corruption across severity levels."""
    named_specs = [
        (f"{corruption}@{severity}", ("corruption", corruption, severity))
        for severity in severities
    ]
    grid, timing = _evaluate_grid(
        f"severity_sweep[{task_name}/{model_name}/{method_name}/{corruption}]",
        task_name, model_name, method_name, scale, False, named_specs, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
        executor=executor, queue_dir=queue_dir,
    )
    potentials = np.full((scale.n_repetitions, len(severities)), np.nan)
    for rep in range(scale.n_repetitions):
        for si, (name, _) in enumerate(named_specs):
            curve = grid.get((rep, name))
            if curve is not None:
                potentials[rep, si] = curve.potential(scale.delta)
    return SeveritySweepResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        corruption=corruption,
        severities=tuple(severities),
        potentials=potentials,
        timing=timing,
    )


@dataclass
class ExcessErrorStudyResult:
    """Difference in excess error with its OLS fit (Fig. 6c/6f)."""

    task_name: str
    model_name: str
    method_name: str
    ratios: np.ndarray  # (K,)
    differences: np.ndarray  # (R, K)
    slope: float
    slope_ci: tuple[float, float]
    timing: GridTiming | None = None


def corruption_excess_error_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    corruptions: Sequence[str] | None = None,
    robust: bool = False,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    executor: str | None = None,
    queue_dir: str | Path | None = None,
) -> ExcessErrorStudyResult:
    """``ê − e`` per prune ratio, averaged over the corruption suite.

    Built from the (memoized) per-distribution curves of
    :func:`corruption_potential_experiment`, so sharing a bench process with
    the potential experiments costs no extra model evaluations.  A degraded
    base grid contributes only its complete repetitions (every needed curve
    present); with none left the study cannot be fit and raises.
    """
    base = corruption_potential_experiment(
        task_name, model_name, method_name, scale,
        corruptions=corruptions, robust=robust, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
        executor=executor, queue_dir=queue_dir,
    )
    corruption_names = [
        n for n in base.distributions if n not in ("nominal", "shifted")
    ]
    all_ratios, all_diffs = [], []
    for rep in range(scale.n_repetitions):
        nominal_curve = base.curves["nominal"][rep]
        rep_curves = [base.curves[n][rep] for n in corruption_names]
        if nominal_curve is None or any(c is None for c in rep_curves):
            continue
        ood_errors = np.mean([c.errors for c in rep_curves], axis=0)
        ood_parent = float(np.mean([c.parent_error for c in rep_curves]))
        parent_excess = ood_parent - nominal_curve.parent_error
        all_ratios.append(nominal_curve.ratios)
        all_diffs.append((ood_errors - nominal_curve.errors) - parent_excess)

    if not all_ratios:
        raise RuntimeError(
            f"corruption_excess_error[{task_name}/{model_name}/{method_name}]: "
            "no complete repetition survived the degraded base grid "
            f"(manifest: {base.timing.manifest_path if base.timing else None})"
        )
    ratios = np.mean(all_ratios, axis=0)
    diffs = np.array(all_diffs)
    x = np.tile(ratios, diffs.shape[0])
    y = diffs.reshape(-1)
    slope = ols_slope_through_origin(x, y)
    ci = bootstrap_slope_ci(x, y, rng=scale.base_seed)
    return ExcessErrorStudyResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        ratios=ratios,
        differences=diffs,
        slope=slope,
        slope_ci=ci,
        timing=base.timing,
    )
