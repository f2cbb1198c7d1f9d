"""Prune-accuracy curves and PR/FR summaries (Fig. 2/9/10/11, Tables 4/6/8).

Repetitions are independent, so the per-repetition cells (curve + FLOP
accounting) run through :func:`~repro.experiments.grid.run_grid` under a
``jobs`` knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.analysis.prune_potential import prune_potential_from_curve
from repro.experiments.config import ExperimentScale
from repro.experiments.grid import run_grid
from repro.experiments.memo import memoize
from repro.experiments.zoo import ZooSpec, cached_suite, get_prune_run, make_model
from repro.nn.flops import count_flops
from repro.nn.module import preserve_state
from repro.parallel import CellTiming, GridTiming
from repro.pruning import canonical_spec
from repro.pruning.pipeline import PruneRun
from repro.verify import runtime as verify_runtime


@dataclass
class PruneCurveResult:
    """Prune-accuracy curve of one (task, model, method) over repetitions."""

    task_name: str
    model_name: str
    method_name: str
    ratios: np.ndarray  # (K,) mean achieved ratios over repetitions
    errors: np.ndarray  # (R, K) nominal test error per repetition/checkpoint
    parent_errors: np.ndarray  # (R,)
    flop_reductions: np.ndarray  # (R, K)
    timing: GridTiming | None = None

    @property
    def error_mean(self) -> np.ndarray:
        return self.errors.mean(axis=0)

    @property
    def error_std(self) -> np.ndarray:
        return self.errors.std(axis=0)

    @property
    def accuracy_drop(self) -> np.ndarray:
        """Mean (error - parent error) per checkpoint, the Fig. 9 y-axis."""
        return (self.errors - self.parent_errors[:, None]).mean(axis=0)


def _flop_reductions(
    run: PruneRun, spec: ZooSpec, scale: ExperimentScale
) -> np.ndarray:
    suite = cached_suite(spec.task_name, scale)
    model = make_model(spec, suite, scale)
    with preserve_state(model):
        model.load_state_dict(run.parent_state)
        base = count_flops(model, suite.input_shape)
        out = []
        for ckpt in run.checkpoints:
            model.load_state_dict(ckpt.state)
            out.append(1.0 - count_flops(model, suite.input_shape) / base)
    return np.array(out)


def _rep_cell(payload):
    """Load one repetition's run and account its FLOPs (worker-side)."""
    task_name, model_name, method_name, scale, robust, rep = payload
    t0 = time.perf_counter()
    with observe.span("eval_cell", grid="prune_curve", rep=rep):
        spec = ZooSpec(task_name, model_name, method_name, rep, robust)
        run = get_prune_run(spec, scale)
        frs = _flop_reductions(run, spec, scale)
    observe.incr("eval.cells")
    timing = CellTiming(key=f"rep{rep}", seconds=time.perf_counter() - t0)
    return run.ratios, run.test_errors, run.parent_test_error, frs, timing


@memoize(
    ignore=("jobs", "max_retries", "cell_timeout"),
    normalize={"method_name": canonical_spec},
)
def prune_curve_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    robust: bool = False,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> PruneCurveResult:
    """Build (or load) all repetitions and collect the nominal curve.

    Under ``on_error="collect"`` a failed repetition becomes a NaN row
    in ``errors``/``flop_reductions`` (and a NaN ``parent_errors``
    entry); at least one repetition must survive or the curve cannot be
    assembled and the experiment raises.
    """
    label = f"prune_curve[{task_name}/{model_name}/{method_name}]"
    cells = [
        (
            ZooSpec(task_name, model_name, method_name, rep, robust),
            f"rep{rep}",
            (task_name, model_name, method_name, scale, robust, rep),
        )
        for rep in range(scale.n_repetitions)
    ]
    results, timing = run_grid(
        label, _rep_cell, cells, scale, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
    )
    rep_cells = {rep: cell for rep, cell in enumerate(results) if cell is not None}
    if not rep_cells:
        raise RuntimeError(
            f"{label}: every repetition failed; see the failure manifest"
        )
    n_ckpt = len(next(iter(rep_cells.values()))[0])
    ratios = np.mean([cell[0] for cell in rep_cells.values()], axis=0)
    errors = np.full((scale.n_repetitions, n_ckpt), np.nan)
    parents = np.full(scale.n_repetitions, np.nan)
    frs = np.full((scale.n_repetitions, n_ckpt), np.nan)
    for rep, cell in rep_cells.items():
        errors[rep] = cell[1]
        parents[rep] = cell[2]
        frs[rep] = cell[3]
    result = PruneCurveResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        ratios=ratios,
        errors=errors,
        parent_errors=parents,
        flop_reductions=frs,
        timing=timing,
    )
    if not timing.failures:
        # The runtime oracles assume a complete grid; NaN rows from a
        # degraded run would trip them spuriously.
        verify_runtime.verify_curve_result(result)
    return result


@dataclass
class PruneSummaryRow:
    """One row of Table 4/6/8: best commensurate-accuracy operating point."""

    model_name: str
    method_name: str
    orig_error: float
    error_delta: float  # pruned error - original error at the chosen point
    prune_ratio: float  # PR (%)
    flop_reduction: float  # FR (%)
    commensurate: bool = field(default=True)


def prune_summary_row(
    result: PruneCurveResult, delta: float = 0.005
) -> PruneSummaryRow:
    """The maximal PR (and its FR) with error within ``delta`` of the parent.

    Falls back to the closest-error checkpoint when no checkpoint is
    commensurate, as the paper's table captions describe.
    """
    err_mean = result.error_mean
    parent = float(result.parent_errors.mean())
    ok = err_mean <= parent + delta
    if ok.any():
        idx = int(np.where(ok)[0].max())
        commensurate = True
    else:
        idx = int(np.argmin(err_mean))
        commensurate = False
    return PruneSummaryRow(
        model_name=result.model_name,
        method_name=result.method_name,
        orig_error=parent,
        error_delta=float(err_mean[idx] - parent),
        prune_ratio=float(result.ratios[idx]),
        flop_reduction=float(result.flop_reductions.mean(axis=0)[idx]),
        commensurate=commensurate,
    )


def nominal_potential(result: PruneCurveResult, delta: float = 0.005) -> np.ndarray:
    """Per-repetition prune potential on the nominal test distribution."""
    return np.array(
        [
            prune_potential_from_curve(
                result.ratios, result.errors[r], result.parent_errors[r], delta
            )
            for r in range(result.errors.shape[0])
        ]
    )
