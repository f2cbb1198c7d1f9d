"""Resumable runs: recompute only the failed cells of a degraded grid.

A degraded ``build_zoo`` persists a :class:`FailureManifest` whose
entries carry a ``payload`` sufficient to reconstruct each failed cell
(``{"kind": "zoo", "task": ..., "model": ..., "method": ...,
"repetition": ..., "robust": ...}``).  :func:`resume_zoo` turns those
payloads back into :class:`~repro.experiments.zoo.ZooSpec`\\ s and
re-dispatches *only them* against the warm cache — surviving cells were
already published, so their parents resolve as cache hits and the resume
cost is exactly the failed work.

A degraded run resumed degraded produces a *second* manifest, so every
entry point here also accepts several manifests at once: their specs are
merged and deduplicated, and ``python -m repro zoo --resume a.json
--resume b.json`` replays the union in one pass instead of forcing the
user to pick one file (and lose the other's cells).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.resilience.failures import FailureManifest


def load_manifest(manifest: FailureManifest | str | Path) -> FailureManifest:
    """Accept a manifest object or a path to one on disk."""
    if isinstance(manifest, FailureManifest):
        return manifest
    return FailureManifest.load(manifest)


def load_manifests(
    manifests: FailureManifest | str | Path | Sequence,
) -> list[FailureManifest]:
    """Normalize one-or-many manifests (objects or paths) to a list."""
    if isinstance(manifests, (FailureManifest, str, Path)):
        manifests = [manifests]
    return [load_manifest(m) for m in manifests]


def zoo_specs_from_manifest(manifest) -> list:
    """The failed :class:`ZooSpec`\\ s recorded in one or several manifests
    (merged, deduplicated, order-preserving).  Entries without a zoo
    payload are skipped."""
    from repro.experiments.zoo import ZooSpec

    specs: dict = {}
    for loaded in load_manifests(manifest):
        for failure in loaded.failures:
            payload = failure.payload or {}
            if payload.get("kind") != "zoo":
                continue
            spec = ZooSpec(
                task_name=payload["task"],
                model_name=payload["model"],
                method_name=payload.get("method"),
                repetition=int(payload.get("repetition", 0)),
                robust=bool(payload.get("robust", False)),
            )
            specs.setdefault(spec, None)
    return list(specs)


def _check_scale(manifests: Iterable[FailureManifest], scale) -> None:
    for manifest in manifests:
        if manifest.scale_digest and manifest.scale_digest != scale.digest():
            raise ValueError(
                f"manifest {manifest.label!r} was recorded at scale digest "
                f"{manifest.scale_digest}, not {scale.digest()}: resuming would "
                "recompute against a different cache namespace"
            )


def resume_zoo(
    manifest,
    scale,
    jobs: int | None = None,
    *,
    on_error: str = "collect",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
):
    """Re-dispatch the failed cells of one or several zoo build manifests.

    ``manifest`` may be a single manifest (object or path) or a sequence
    of them — a degraded run resumed degraded leaves a second manifest,
    and passing both replays the merged, deduplicated spec union.  Only
    the manifests' cells are passed to ``build_zoo``; everything that
    survived the original runs is untouched (its artifacts satisfy the
    dependency probes as cache hits, visible in the run ledger's
    ``zoo.cache_hit`` counter).  Raises ``ValueError`` when no manifest
    has a resumable zoo cell or any was produced under a different
    experiment scale (its artifacts would not line up with the cache).
    """
    from repro import observe
    from repro.experiments.zoo import build_zoo

    manifests = load_manifests(manifest)
    _check_scale(manifests, scale)
    specs = zoo_specs_from_manifest(manifests)
    labels = ", ".join(m.label for m in manifests)
    if not specs:
        total = sum(len(m) for m in manifests)
        raise ValueError(
            f"manifest(s) {labels!r} have no resumable zoo cells "
            f"({total} failures recorded)"
        )
    observe.event(
        "resume",
        label=labels,
        manifests=len(manifests),
        cells=len(specs),
        created=manifests[0].created,
    )
    return build_zoo(
        specs,
        scale,
        jobs=jobs,
        on_error=on_error,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
    )
