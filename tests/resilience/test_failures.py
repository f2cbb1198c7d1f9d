"""CellFailure records and the persisted FailureManifest (its JSON is the
post-mortem record; nothing reads it back)."""

from __future__ import annotations

import json

from repro.resilience import (
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    CellFailure,
    FailureManifest,
    default_manifest_path,
)


def _failure(key="cifar-resnet20-wt-rep0", kind=KIND_EXCEPTION, **over):
    base = dict(
        key=key,
        index=3,
        kind=kind,
        error_type="ChaosError",
        message="injected worker exception",
        attempts=3,
        remote_traceback="Traceback ...\nChaosError: injected",
        retryable=True,
    )
    base.update(over)
    return CellFailure(**base)


class TestCellFailure:
    def test_describe_one_liner(self):
        line = _failure().describe()
        assert line == (
            "cifar-resnet20-wt-rep0: exception ChaosError: "
            "injected worker exception (3 attempts)"
        )

    def test_describe_singular_attempt(self):
        assert "(1 attempt)" in _failure(attempts=1).describe()


class TestFailureManifest:
    def test_created_auto_stamped(self):
        assert FailureManifest("g").created  # non-empty ISO-ish stamp

    def test_save_load_round_trip(self, tmp_path):
        manifest = FailureManifest(
            "build_zoo",
            [_failure(), _failure("other", KIND_TIMEOUT, error_type="TimeoutError")],
            total_cells=7,
        )
        path = manifest.save(tmp_path / "failures.json")
        data = json.loads(path.read_text())
        assert data["label"] == "build_zoo"
        assert data["total_cells"] == 7
        assert data["created"] == manifest.created
        assert [CellFailure(**f) for f in data["failures"]] == manifest.failures


class TestTimestampAndDedupe:
    def test_failure_auto_stamps_wall_clock(self):
        stamp = _failure().timestamp
        assert stamp and stamp[4] == "-" and "T" in stamp  # ISO-ish
        assert _failure(timestamp="2026-01-01T00:00:00").timestamp == (
            "2026-01-01T00:00:00"
        )

    def test_timestamp_survives_save_load(self, tmp_path):
        failure = _failure(timestamp="2026-01-01T00:00:00")
        path = FailureManifest("g", [failure]).save(tmp_path / "m.json")
        [loaded] = json.loads(path.read_text())["failures"]
        assert loaded["timestamp"] == "2026-01-01T00:00:00"


class TestDefaultManifestPath:
    def test_label_sanitized_and_pid_suffixed(self, tmp_path):
        import os

        path = default_manifest_path(tmp_path, "grid/eval cells [wt]")
        assert path.parent == tmp_path
        assert path.name.startswith("failures-grid_eval_cells_")
        assert path.name.endswith(f"-{os.getpid()}.json")
        assert "/" not in path.name and " " not in path.name
