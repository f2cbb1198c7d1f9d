"""Shared benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures at the
calibrated ``SMOKE`` scale, prints the same rows/series the paper reports,
and asserts the qualitative *shape* of the result (who wins, orderings,
where curves collapse) — absolute numbers differ because the substrate is
a scaled synthetic task on CPU, not the authors' GPU testbed.

Trained artifacts come from the disk-cached model zoo (see
``python -m repro zoo``); analysis results are memoized in-process, so benchmarks
that share curves (potential / excess error / tables) pay for evaluation
once per pytest session.
"""

from __future__ import annotations

import pytest

from repro.experiments import SMOKE

# Corruption subsets used for the larger-scale tasks to bound eval time.
IMAGENET_CORRUPTIONS = (
    "gaussian_noise",
    "shot_noise",
    "defocus_blur",
    "motion_blur",
    "snow",
    "fog",
    "contrast",
    "jpeg",
)
VOC_CORRUPTIONS = (
    "gaussian_noise",
    "defocus_blur",
    "snow",
    "brightness",
    "contrast",
    "jpeg",
)


@pytest.fixture(scope="session")
def scale():
    return SMOKE


def run_once(benchmark, fn):
    """Benchmark one expensive regeneration without repetition."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
