"""Fast chaos smoke: injected faults flow through the engine and recover.

This is the tier-1 companion to the nightly chaos suite: milliseconds,
fully deterministic, and it exercises the full injection → classification
→ retry → recovery loop end to end through ``parallel_map``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.parallel import parallel_map
from repro.resilience import RetryPolicy, chaos
from repro.resilience.chaos import ChaosError


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()
    yield
    chaos.disable()


def _double(x):
    return 2 * x


def test_injected_exceptions_recover_on_retry():
    # Every cell fails its first attempt, then runs clean: the map must
    # converge with one retry per cell and zero failures.
    chaos.configure(exception_rate=1.0, seed=2, first_attempts_only=1)
    out = parallel_map(
        _double,
        list(range(6)),
        jobs=1,
        on_error="collect",
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.0, jitter=0.0),
    )
    assert out.ok
    assert out.results == [0, 2, 4, 6, 8, 10]
    assert out.retries == 6


def test_exhausted_chaos_lands_in_the_failure_record():
    chaos.configure(exception_rate=1.0, seed=2)  # fails on every attempt
    out = parallel_map(
        _double,
        [1],
        jobs=1,
        on_error="collect",
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.0, jitter=0.0),
    )
    assert not out.ok
    (failure,) = out.failures
    assert failure.error_type == "ChaosError"
    assert failure.retryable and failure.attempts == 2


def test_raise_mode_surfaces_the_chaos_error():
    chaos.configure(exception_rate=1.0, seed=2)
    with pytest.raises(ChaosError, match="injected worker exception"):
        parallel_map(
            _double,
            [1],
            jobs=1,
            retry_policy=RetryPolicy(max_retries=0, base_delay=0.0, jitter=0.0),
        )


_AMBIENT_CRASH = """
from repro.parallel import parallel_map
from repro.resilience.chaos import ChaosError

try:
    parallel_map(abs, [-1, -2], jobs=1, max_retries=0)
except ChaosError as exc:
    print("serial:", type(exc).__name__)
out = parallel_map(abs, [-1, -2], jobs=2, on_error="collect", max_retries=0)
print("pool:", *[f.kind for f in out.failures])
"""


def test_ambient_crash_injection_spares_the_process_that_reads_it():
    # REPRO_CHAOS set before the interpreter starts, no configure() call:
    # a serial map's injected crash must raise, not hard-exit the process
    # running the grid, while forked pool workers still die.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CHAOS"] = "crash_rate=1.0,seed=1"
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _AMBIENT_CRASH],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["serial: ChaosError", "pool: crash crash"]
