"""One runner for every study grid.

A study grid (corruption, severity, noise, prune curves; the robust study
and the summary tables compose these) is a list of evaluation cells, each
reading one zoo artifact.  :func:`run_grid` runs the sequence all of them
share: open the grid scope, build the zoo artifacts the cells read, skip
the cells whose artifact died as ``dependency`` failures (instead of
retraining a doomed artifact inline), dispatch the rest, and persist one
:class:`~repro.resilience.failures.FailureManifest` covering both phases
next to the grid's :class:`~repro.parallel.GridTiming`.  The zoo's two
fan-outs (parents, then prune runs whose parent survived,
:func:`~repro.experiments.zoo.build_artifacts`) go through the same
:func:`dispatch` step, and ``build_zoo`` is those fan-outs plus
:func:`record_grid`.

The potential grids (corruption, severity, noise) split each
repetition's distributions into blocks with :func:`distribution_blocks`:
one cell swaps each checkpoint into its model once for a whole block.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Sequence

from repro import observe
from repro.parallel import GridTiming, parallel_map, resolve_jobs, stopwatch
from repro.resilience import CellFailure, FailureManifest
from repro.resilience.failures import KIND_DEPENDENCY, default_manifest_path


def distribution_blocks(
    names: Sequence[str], n_repetitions: int, jobs: int | None = None
) -> list[tuple[int, slice, str]]:
    """``(rep, block, key)`` of each cell of a potential grid: every
    repetition's ``names`` split into contiguous, near-equal blocks.

    A repetition gets ``jobs // gcd(jobs, n_repetitions)`` blocks (at
    most ``len(names)``; ``jobs`` resolved as
    :func:`~repro.parallel.parallel_map` resolves it), the fewest that
    make the grid's cell count a multiple of the worker count, so every
    worker gets an equal share; at ``jobs=1`` a repetition is one cell.
    ``block`` slices ``names``, and ``key`` is ``rep<r>/<first>..<last>``
    (``rep<r>/<name>`` for a block of one).
    """
    if not names:
        return []
    jobs = resolve_jobs(jobs)
    k = min(len(names), jobs // math.gcd(jobs, n_repetitions))
    size, extra = divmod(len(names), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    cells = []
    for rep in range(n_repetitions):
        for lo, hi in zip(bounds, bounds[1:]):
            span = names[lo] if hi - lo == 1 else f"{names[lo]}..{names[hi - 1]}"
            cells.append((rep, slice(lo, hi), f"rep{rep}/{span}"))
    return cells


def dispatch(
    fn: Callable,
    keys: Sequence[str],
    payloads: Sequence,
    upstreams: Sequence[str | None],
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> tuple[list, list[CellFailure]]:
    """Fan out the cells whose upstream lives; returns ``(results, failures)``.

    ``upstreams[i]`` names the dead cell that cell ``i`` needs (``"parent
    cell <key>"``), or is ``None``; a cell with a dead upstream becomes a
    ``dependency`` failure and never runs.  ``results`` is aligned with
    ``keys``: in collect mode a skipped or dead cell leaves a ``None``
    hole (and one :class:`CellFailure` indexed by its grid position), in
    raise mode the first failure propagates.
    """
    live = [i for i, upstream in enumerate(upstreams) if upstream is None]
    failures = [
        CellFailure(
            key=keys[i],
            index=i,
            kind=KIND_DEPENDENCY,
            error_type="DependencyFailed",
            message=f"{upstream} failed",
            attempts=0,
        )
        for i, upstream in enumerate(upstreams)
        if upstream is not None
    ]
    out = parallel_map(
        fn,
        [payloads[i] for i in live],
        jobs=jobs,
        on_error=on_error,
        max_retries=max_retries,
        timeout=cell_timeout,
        keys=[keys[i] for i in live],
    )
    if on_error == "collect":
        failures += [dataclasses.replace(f, index=live[f.index]) for f in out.failures]
        out = out.results
    results: list = [None] * len(keys)
    for i, value in zip(live, out):
        results[i] = value
    return results, failures


def record_grid(
    label: str,
    jobs: int | None,
    wall_seconds: float,
    cells: list,
    failures: list[CellFailure],
) -> GridTiming:
    """Persist a degraded grid's manifest and record the grid's timing.

    Every cell of the grid is in ``cells`` or in ``failures``.  The
    manifest goes under the cache dir; a clean grid writes none.
    """
    manifest_path = None
    if failures:
        # Lazy import: repro.experiments.zoo imports this module.
        from repro.experiments.zoo import cache_dir

        total = len(cells) + len(failures)
        manifest = FailureManifest(label, list(failures), total)
        manifest_path = str(manifest.save(default_manifest_path(cache_dir(), label)))
        observe.event(
            "degraded",
            label=label,
            failed=len(failures),
            total=total,
            manifest=manifest_path,
        )
    return GridTiming(
        label=label,
        jobs=resolve_jobs(jobs),
        wall_seconds=wall_seconds,
        cells=cells,
        failures=failures,
        manifest_path=manifest_path,
    ).record()


def run_grid(
    label: str,
    fn: Callable,
    cells: Sequence[tuple[Any, str, Any]],
    scale,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> tuple[list, GridTiming]:
    """Run one study grid; returns ``(results, timing)``.

    ``cells`` are ``(spec, key, payload)`` triples: cell ``key`` reads
    the zoo artifact ``spec`` and runs as ``fn(payload)``, which returns
    a tuple whose last item is the cell's
    :class:`~repro.parallel.CellTiming`.  The zoo probe and the cells
    share one :func:`~repro.experiments.zoo.grid_scope`.  With
    ``on_error="collect"`` the grid degrades instead of aborting: the
    cells of a dead artifact are ``dependency`` failures, ``results``
    (aligned with ``cells``) holds ``None`` for every skipped or dead
    cell, and ``timing`` carries the failures of both phases and the
    path of the one manifest that records them.
    """
    from repro.experiments.zoo import build_artifacts, grid_scope

    knobs = dict(
        jobs=jobs,
        on_error=on_error,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
    )
    with stopwatch() as elapsed, grid_scope():
        zoo_cells, zoo_failures = build_artifacts(
            list(dict.fromkeys(spec for spec, _, _ in cells)), scale, **knobs
        )
        dead = {f.key for f in zoo_failures}
        results, failures = dispatch(
            fn,
            [key for _, key, _ in cells],
            [payload for _, _, payload in cells],
            [
                f"zoo artifact {spec.key(scale)}" if spec.key(scale) in dead else None
                for spec, _, _ in cells
            ],
            **knobs,
        )
        wall = elapsed()
    timing = record_grid(
        label,
        jobs,
        wall,
        zoo_cells + [r[-1] for r in results if r is not None],
        zoo_failures + failures,
    )
    return results, timing
