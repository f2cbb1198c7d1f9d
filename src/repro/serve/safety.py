"""Per-model safety context for the ``safety`` endpoint (paper Def. 1).

The paper's Section 7 deployment guidelines say a pruned model must not
ship on its nominal (test-set) prune potential alone: potential has to be
re-evaluated on every anticipated deployment shift, and the *worst* of
those numbers governs how far to prune.  :class:`SafetyContext` is that
evaluation, cached at registration time so the serving layer can attach
it to any prediction without re-running curve sweeps per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.prune_potential import (
    DEFAULT_DELTA,
    PruneAccuracyCurve,
    prune_potential_from_curve,
)

#: ``worst >= RETENTION * nominal`` is the paper's "all anticipated shifts
#: retain the nominal potential" bar for pruning to the full extent.
RETENTION = 0.9


@dataclass(frozen=True)
class SafetyContext:
    """Cached Def.-1 prune-potential evidence for one registered model.

    ``potentials`` maps each evaluated distribution (nominal test set,
    hold-out shifts, corruptions) to its prune potential at ``delta``;
    ``parent_errors`` carries the unpruned parent's error per distribution
    when known; ``functional`` carries noise-similarity metrics (match
    rate / softmax L2) against the parent when known.
    """

    delta: float
    potentials: Mapping[str, float]
    parent_errors: Mapping[str, float] = field(default_factory=dict)
    functional: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.potentials:
            raise ValueError("SafetyContext requires at least one distribution")
        if "nominal" not in self.potentials:
            raise ValueError("SafetyContext requires a 'nominal' distribution")

    @property
    def nominal(self) -> float:
        return float(self.potentials["nominal"])

    @property
    def worst(self) -> float:
        return float(min(self.potentials.values()))

    @property
    def worst_distribution(self) -> str:
        return min(self.potentials, key=lambda k: self.potentials[k])

    @property
    def guideline(self) -> int:
        """Which of the paper's Section 1 guidelines applies.

        3 — every anticipated shift retains the nominal potential: prune
        to the full extent; 2 — partial retention: prune only to the
        worst-case potential; 1 — some shift tolerates no pruning at all:
        don't prune (or robust-(re)train on that shift first).
        """
        if self.worst >= RETENTION * self.nominal and self.nominal > 0:
            return 3
        if self.worst > 0:
            return 2
        return 1

    @property
    def safe_ratio(self) -> float:
        """The deployment prune ratio the guidelines license."""
        return self.nominal if self.guideline == 3 else self.worst

    def recommendation(self) -> str:
        """One-line deployment recommendation, mirroring the guidelines."""
        if self.guideline == 3:
            return (
                f"prune to the full nominal extent ({100 * self.nominal:.0f}%): "
                "all anticipated shifts retain the nominal potential"
            )
        if self.guideline == 2:
            return (
                f"prune moderately: deploy at the worst-case potential "
                f"({100 * self.worst:.0f}%, under {self.worst_distribution}), "
                f"not the nominal ({100 * self.nominal:.0f}%)"
            )
        return (
            f"do not prune: {self.worst_distribution} tolerates no pruning; "
            "add it to (re-)training first"
        )

    def to_dict(self) -> dict:
        out: dict = {
            "delta": self.delta,
            "potentials": dict(self.potentials),
            "nominal_potential": self.nominal,
            "worst_potential": self.worst,
            "worst_distribution": self.worst_distribution,
            "guideline": self.guideline,
            "safe_ratio": self.safe_ratio,
            "recommendation": self.recommendation(),
        }
        if self.parent_errors:
            out["parent_errors"] = dict(self.parent_errors)
        if self.functional:
            out["functional"] = dict(self.functional)
        return out


def safety_from_curves(
    curves: Mapping[str, PruneAccuracyCurve],
    delta: float = DEFAULT_DELTA,
    functional: Mapping[str, float] | None = None,
) -> SafetyContext:
    """Build a :class:`SafetyContext` from per-distribution prune curves.

    ``curves`` maps distribution names to :class:`PruneAccuracyCurve`
    (``repro.analysis.evaluate_curve`` returns one per dataset it is
    given, in order); one of them must be named ``"nominal"``.
    """
    potentials = {name: c.potential(delta) for name, c in curves.items()}
    parent_errors = {name: float(c.parent_error) for name, c in curves.items()}
    return SafetyContext(
        delta=delta,
        potentials=potentials,
        parent_errors=parent_errors,
        functional=dict(functional or {}),
    )


def safety_from_arrays(
    ratios,
    errors_by_distribution: Mapping[str, object],
    parent_errors: Mapping[str, float],
    delta: float = DEFAULT_DELTA,
    functional: Mapping[str, float] | None = None,
) -> SafetyContext:
    """Build a :class:`SafetyContext` straight from curve arrays.

    Convenience for callers that already hold ``(ratios, errors)`` series
    per distribution (benchmark scenarios, cached study outputs) without
    re-wrapping them in :class:`PruneAccuracyCurve` objects.
    """
    potentials = {
        name: prune_potential_from_curve(
            ratios, errors, parent_errors[name], delta
        )
        for name, errors in errors_by_distribution.items()
    }
    return SafetyContext(
        delta=delta,
        potentials=potentials,
        parent_errors={k: float(v) for k, v in parent_errors.items()},
        functional=dict(functional or {}),
    )
