"""Corruption experiments: per-corruption prune potential (Fig. 6b/6e, 7,
Appendix D.2/D.3) and the difference in excess error (Fig. 6c/6f, D.5).

The (repetition × distribution) evaluation grid runs through
:func:`~repro.experiments.grid.run_grid`, one cell per (repetition, block
of distributions) (:func:`~repro.experiments.grid.distribution_blocks`):
a cell swaps each checkpoint into its model once and evaluates it on
every distribution of its block.  The caller builds every distribution's
dataset before the fan-out.  ``jobs`` (or ``REPRO_NUM_WORKERS``) controls
the fan-out; every distribution's curve is bitwise the same at any
``jobs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import observe
from repro.analysis.prune_potential import PruneAccuracyCurve, evaluate_curve
from repro.analysis.regression import bootstrap_slope_ci, ols_slope_through_origin
from repro.data.corruptions import available_corruptions
from repro.data.datasets import Dataset, Normalizer, TaskSuite
from repro.experiments.config import ExperimentScale
from repro.experiments.grid import distribution_blocks, run_grid
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

# A distribution spec is a compact recipe for one evaluation set:
# ("nominal",), ("shifted",), or ("corruption", name, severity).
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


def _block_cell(payload) -> tuple[list[PruneAccuracyCurve], CellTiming]:
    """Evaluate one (repetition, block of distributions) grid cell
    (worker-side): each checkpoint is swapped in once for the block."""
    spec, scale, key, datasets, normalizer = payload
    t0 = time.perf_counter()
    with observe.span("eval_cell", rep=spec.repetition, distributions=len(datasets)):
        suite = cached_suite(spec.task_name, scale)
        run = get_prune_run(spec, scale)
        model = scoped_model(spec, suite, scale)
        curves = evaluate_curve(run, model, datasets, normalizer)
    observe.incr("eval.cells")
    return curves, CellTiming(key=key, seconds=time.perf_counter() - t0)


def evaluate_grid(
    label: str,
    specs: Sequence[ZooSpec],
    names: Sequence[str],
    datasets: Sequence[Sequence[Dataset]],
    scale: ExperimentScale,
    normalizer: Normalizer | None,
    **knobs,
) -> tuple[dict[tuple[int, int], PruneAccuracyCurve], GridTiming]:
    """The prune-accuracy curves of each repetition's zoo spec
    ``specs[rep]`` on its ``datasets[rep]`` (named ``names``, which key
    the cells), by ``(rep, index into names)``.

    One cell per (repetition, block of distributions)
    (:func:`~repro.experiments.grid.distribution_blocks`).  The caller
    builds the datasets before the fan-out, so forked workers inherit
    them.  A cell that died under ``on_error="collect"`` leaves no entry
    for any distribution of its block (see
    :func:`~repro.experiments.grid.run_grid`).
    """
    blocks = distribution_blocks(names, len(specs), knobs.get("jobs"))
    cells = [
        (specs[rep], key, (specs[rep], scale, key, datasets[rep][block], normalizer))
        for rep, block, key in blocks
    ]
    results, timing = run_grid(label, _block_cell, cells, scale, **knobs)
    curves = {
        (rep, i): curve
        for (rep, block, _), result in zip(blocks, results)
        if result is not None
        for i, curve in enumerate(result[0], start=block.start)
    }
    return curves, timing


def _distribution_grid(
    label: str,
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    robust: bool,
    named_specs: list[tuple[str, DistributionSpec]],
    **knobs,
) -> tuple[dict[tuple[int, int], PruneAccuracyCurve], GridTiming]:
    """:func:`evaluate_grid` over named distribution specs.  Every
    dataset is built here, before the fan-out, so a bad spec raises in
    the caller."""
    suite = cached_suite(task_name, scale)
    datasets = [_distribution_dataset(suite, dist_spec) for _, dist_spec in named_specs]
    specs = [
        ZooSpec(task_name, model_name, method_name, rep, robust)
        for rep in range(scale.n_repetitions)
    ]
    return evaluate_grid(
        label, specs, [name for name, _ in named_specs], [datasets] * len(specs),
        scale, suite.normalizer(), **knobs,
    )


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
    ignore=("jobs", "max_retries", "cell_timeout"),
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
) -> CorruptionPotentialResult:
    """Prune potential on nominal, shifted, and every corrupted test set.

    An unknown corruption raises ``KeyError`` here, before any zoo
    artifact is built or cell dispatched.  Under ``on_error="collect"`` a
    failed cell (one repetition's block of distributions) becomes a NaN
    in ``potentials`` and a ``None`` hole in the ``curves`` list of each
    distribution of its block (keeping the per-repetition indices
    aligned); the failures live on ``timing.failures``.
    """
    suite = make_suite(task_name, scale)
    named_specs = distribution_specs(suite, scale, corruptions)
    names = [n for n, _ in named_specs]
    grid, timing = _distribution_grid(
        f"corruption_potential[{task_name}/{model_name}/{method_name}]",
        task_name, model_name, method_name, scale, robust, named_specs, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
    )
    potentials = np.full((scale.n_repetitions, len(names)), np.nan)
    curves: dict[str, list[PruneAccuracyCurve]] = {n: [] for n in names}
    for rep in range(scale.n_repetitions):
        for di, dist_name in enumerate(names):
            curve = grid.get((rep, di))
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
    ignore=("jobs", "max_retries", "cell_timeout"),
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
) -> SeveritySweepResult:
    """Prune potential of one corruption across severity levels.

    A severity outside 1..5 raises ``ValueError`` here, before any zoo
    artifact is built or cell dispatched.
    """
    named_specs = [
        (f"{corruption}@{severity}", ("corruption", corruption, severity))
        for severity in severities
    ]
    grid, timing = _distribution_grid(
        f"severity_sweep[{task_name}/{model_name}/{method_name}/{corruption}]",
        task_name, model_name, method_name, scale, False, named_specs, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
    )
    potentials = np.full((scale.n_repetitions, len(severities)), np.nan)
    for rep in range(scale.n_repetitions):
        for si in range(len(severities)):
            curve = grid.get((rep, si))
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
