"""Deterministic fault injection: spec parsing, gating, and the sites."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import DEFAULT_PROFILE, ChaosConfig, ChaosError


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    """Every test starts and ends with chaos fully disabled."""
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()
    yield
    chaos.disable()


class TestSpecTransport:
    def test_round_trip(self):
        config = ChaosConfig(
            exception_rate=0.25,
            crash_rate=0.1,
            delay_rate=0.05,
            delay_seconds=1.5,
            torn_write_rate=0.2,
            seed=7,
            only_keys=("wt", "ft"),
            first_attempts_only=1,
            max_per_key=3,
        )
        spec = (
            "exception_rate=0.25, crash_rate=0.1,delay_rate=0.05,"
            "delay_seconds=1.5,torn_write_rate=0.2,seed=7,only_keys=wt|ft,"
            "first_attempts_only=1,max_per_key=3"
        )
        assert ChaosConfig.from_spec(spec) == config

    @pytest.mark.parametrize("flag", ["1", "true", "ON", "yes"])
    def test_bare_truthy_means_default_profile(self, flag):
        assert ChaosConfig.from_spec(flag) == DEFAULT_PROFILE
        assert DEFAULT_PROFILE.active()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown REPRO_CHAOS field"):
            ChaosConfig.from_spec("explosion_rate=1.0")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="name=value"):
            ChaosConfig.from_spec("exception_rate")

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_validated(self, rate):
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            ChaosConfig(crash_rate=rate)


def _tear_in_forked_worker(path):
    path.write_bytes(b"x" * 100)
    chaos.on_publish(path)


class TestLifecycle:
    def test_forked_worker_keeps_the_plan_with_fresh_counters(self, tmp_path):
        config = chaos.configure(torn_write_rate=1.0, seed=3, max_per_key=1)
        assert chaos.enabled()
        assert chaos.current() == config
        assert chaos.ENV_VAR not in os.environ  # nothing exported
        path = tmp_path / "artifact.npz"
        path.write_bytes(b"x" * 100)
        chaos.on_publish(path)  # spends this process's one tear of the key
        path.write_bytes(b"x" * 100)
        worker = multiprocessing.get_context("fork").Process(
            target=_tear_in_forked_worker, args=(path,)
        )
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert path.stat().st_size == 50  # the worker's own count allowed it

    def test_disable_clears_state_and_env(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "exception_rate=1.0")
        chaos.configure(exception_rate=1.0)
        chaos.disable()
        assert not chaos.enabled()
        assert chaos.current() is None
        assert chaos.ENV_VAR not in os.environ

    def test_state_reread_from_env(self, monkeypatch):
        # A process started under REPRO_CHAOS picks the plan up on first
        # use.
        monkeypatch.setenv(chaos.ENV_VAR, "exception_rate=1.0,seed=2")
        chaos._state = None
        assert chaos.enabled()
        assert chaos.current().exception_rate == 1.0

    def test_configure_accepts_config_plus_overrides(self):
        base = ChaosConfig(exception_rate=0.5, seed=1)
        config = chaos.configure(base, seed=9)
        assert config.exception_rate == 0.5 and config.seed == 9


class TestWorkerSiteGating:
    def test_exception_deterministic_per_key(self):
        decisions = {}
        for _ in range(2):  # identical across two configure cycles
            chaos.configure(exception_rate=0.5, seed=11)
            round_result = {}
            for i in range(20):
                key = f"cell-{i}"
                try:
                    chaos.on_worker_cell(key, attempt=0)
                    round_result[key] = False
                except ChaosError:
                    round_result[key] = True
            chaos.disable()
            decisions.setdefault("rounds", []).append(round_result)
        first, second = decisions["rounds"]
        assert first == second
        assert any(first.values()) and not all(first.values())

    def test_only_keys_scopes_injection(self):
        chaos.configure(exception_rate=1.0, seed=3, only_keys=("-ft-",))
        chaos.on_worker_cell("cifar-resnet20-wt-rep0", attempt=0)  # no match
        with pytest.raises(ChaosError):
            chaos.on_worker_cell("cifar-resnet20-ft-rep0", attempt=0)

    def test_first_attempts_only_lets_retries_recover(self):
        chaos.configure(exception_rate=1.0, seed=3, first_attempts_only=1)
        with pytest.raises(ChaosError):
            chaos.on_worker_cell("cell", attempt=0)
        chaos.on_worker_cell("cell", attempt=1)  # retry runs clean

    def test_crash_degrades_to_exception_in_owner_process(self):
        # Only a forked pool worker may hard-exit: an os._exit here would
        # kill the test runner, so the injection raises instead.
        chaos.configure(crash_rate=1.0, seed=3)
        with pytest.raises(ChaosError, match="raised in-process"):
            chaos.on_worker_cell("cell", attempt=0)

    def test_delay_site_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr(chaos.time, "sleep", naps.append)
        chaos.configure(delay_rate=1.0, delay_seconds=7.5, seed=3)
        chaos.on_worker_cell("cell", attempt=0)
        assert naps == [7.5]

    def test_disabled_is_a_no_op(self):
        chaos.on_worker_cell("cell", attempt=0)  # must not raise


class TestFileSites:
    def test_tear_file_halves_the_archive(self, tmp_path):
        path = tmp_path / "artifact.npz"
        path.write_bytes(b"x" * 100)
        chaos.tear_file(path)
        assert path.read_bytes() == b"x" * 50
        tiny = tmp_path / "tiny.bin"
        tiny.write_bytes(b"x")
        chaos.tear_file(tiny)
        assert tiny.read_bytes() == b"x"  # never truncated to zero bytes

    def test_on_publish_tears_at_most_max_per_key(self, tmp_path):
        chaos.configure(torn_write_rate=1.0, seed=3, max_per_key=1)
        path = tmp_path / "artifact.npz"
        path.write_bytes(b"x" * 100)
        chaos.on_publish(path)
        assert path.stat().st_size == 50  # torn once
        path.write_bytes(b"x" * 100)  # recovery republishes
        chaos.on_publish(path)
        assert path.stat().st_size == 100  # cap reached: not re-torn

    def test_on_lock_acquired_holds_then_stops(self, monkeypatch, tmp_path):
        naps = []
        monkeypatch.setattr(chaos.time, "sleep", naps.append)
        chaos.configure(lock_hold_rate=1.0, lock_hold_seconds=0.25, seed=3)
        lock = tmp_path / "artifact.npz.lock"
        chaos.on_lock_acquired(lock)
        chaos.on_lock_acquired(lock)
        assert naps == [0.25]  # held once per (site, key) under max_per_key
