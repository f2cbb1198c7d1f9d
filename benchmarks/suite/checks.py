"""Correctness checks run after the timed phase; failures feed ``check_failures``."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Compiled plans fold BatchNorm into the preceding weights, so they match
# the module forward to ~1e-6 relative, not bitwise; the bound is
# scale-aware like the engine's own compile-time self-check, with 10x room
# because these images were never seen by that check.
LOGITS_ATOL = 1e-4
LOGITS_RTOL = 1e-4


@dataclass
class Checks:
    """Named pass/fail results of one run."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]

    def audit_cache(self, path: Path) -> None:
        """``repro.verify.audit_path`` must pass on every artifact built."""
        from repro.verify import audit_path

        report = audit_path(path)
        self.add(f"audit[{path.name}]", report.passed, report.summary())

    def logits_match_module(self, name: str, model, images: np.ndarray) -> None:
        """The shared engine agrees with the plain ``Module`` forward."""
        from repro.autograd.tensor import Tensor, no_grad
        from repro.infer import engine_for

        got = engine_for(model).logits(images)
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                want = model(Tensor(images)).data
        finally:
            model.train(was_training)
        diff = float(np.abs(got - want).max())
        bound = LOGITS_ATOL + LOGITS_RTOL * float(np.abs(want).max())
        self.add(
            f"logits[{name}]",
            diff <= bound,
            f"max |engine - module| {diff:.3e} vs bound {bound:.3e} on {len(images)} images",
        )

    def identical(self, name: str, outcomes: list) -> None:
        """Every repeat of the same seed produced the same result."""
        same = all(o == outcomes[0] for o in outcomes[1:])
        self.add(f"repeatable[{name}]", same, f"{len(outcomes)} repeats")
