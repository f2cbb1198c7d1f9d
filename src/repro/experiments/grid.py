"""One runner for every study grid.

A study grid (corruption, severity, noise, prune curves; the robust study
and the summary tables compose these) is a list of evaluation cells, each
reading one zoo artifact.  :func:`run_grid` runs the sequence all of them
share: open the grid scope, build the zoo artifacts the cells read, skip
the cells whose artifact died as ``dependency`` failures (instead of
retraining a doomed artifact inline), dispatch the rest, and persist one
:class:`~repro.resilience.failures.FailureManifest` covering both phases
next to the grid's :class:`~repro.parallel.GridTiming`.  ``build_zoo``'s
two fan-outs (parents, then prune runs whose parent survived) go through
the same :func:`dispatch` and :func:`record_grid` steps.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import observe
from repro.parallel import GridTiming, parallel_map, resolve_jobs, stopwatch
from repro.resilience import CellFailure, FailureManifest
from repro.resilience.failures import KIND_DEPENDENCY, default_manifest_path


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
    executor: str | None = None,
    queue_dir: str | Path | None = None,
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
        executor=executor,
        queue_dir=queue_dir,
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
    total_cells: int,
    scale,
    manifest_dir: str | Path | None = None,
) -> GridTiming:
    """Persist a degraded grid's manifest and record the grid's timing.

    The manifest goes under ``manifest_dir`` (default: the cache dir),
    with the scale digest so ``--resume`` refuses to replay it against a
    different cache namespace; a clean grid writes none.
    """
    manifest_path = None
    if failures:
        # Lazy import: repro.experiments.zoo imports this module.
        from repro.experiments.zoo import cache_dir

        manifest = FailureManifest(
            label=label,
            failures=list(failures),
            total_cells=total_cells,
            scale_digest=scale.digest(),
        )
        directory = Path(manifest_dir) if manifest_dir else cache_dir()
        manifest_path = str(manifest.save(default_manifest_path(directory, label)))
        observe.event(
            "degraded",
            label=label,
            failed=len(failures),
            total=total_cells,
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
    executor: str | None = None,
    queue_dir: str | Path | None = None,
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
    manifest path.
    """
    from repro.experiments.zoo import build_zoo, grid_scope

    knobs = dict(
        jobs=jobs,
        on_error=on_error,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
        executor=executor,
        queue_dir=queue_dir,
    )
    with stopwatch() as elapsed, grid_scope():
        zoo = build_zoo(list(dict.fromkeys(spec for spec, _, _ in cells)), scale, **knobs)
        dead = {f.key for f in zoo.failures}
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
        zoo.cells + [r[-1] for r in results if r is not None],
        zoo.failures + failures,
        len(zoo.cells) + len(zoo.failures) + len(cells),
        scale,
    )
    return results, timing
