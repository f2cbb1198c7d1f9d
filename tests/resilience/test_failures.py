"""CellFailure records and the persisted FailureManifest."""

from __future__ import annotations

import json

import pytest

from repro.resilience import (
    KIND_CRASH,
    KIND_DEPENDENCY,
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
        payload={"kind": "zoo", "task": "cifar", "model": "resnet20",
                 "method": "wt", "repetition": 0, "robust": False},
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

    def test_with_payload_returns_new_frozen_record(self):
        f = _failure(payload=None)
        g = f.with_payload({"kind": "zoo"})
        assert f.payload is None and g.payload == {"kind": "zoo"}
        assert g.key == f.key
        with pytest.raises(Exception):  # frozen dataclass
            f.key = "other"


class TestFailureManifest:
    def test_summary_breaks_down_kinds(self):
        manifest = FailureManifest(
            "build_zoo",
            [
                _failure("a", KIND_EXCEPTION),
                _failure("b", KIND_CRASH),
                _failure("c", KIND_CRASH),
                _failure("d", KIND_TIMEOUT),
                _failure("e", KIND_DEPENDENCY),
            ],
            total_cells=12,
        )
        assert len(manifest) == 5
        assert manifest.keys == ["a", "b", "c", "d", "e"]
        summary = manifest.summary()
        assert summary.startswith("build_zoo: 5/12 cells failed")
        assert "2 crash" in summary and "1 timeout" in summary

    def test_created_auto_stamped(self):
        assert FailureManifest("g").created  # non-empty ISO-ish stamp

    def test_save_load_round_trip(self, tmp_path):
        manifest = FailureManifest(
            "build_zoo",
            [_failure(), _failure("other", KIND_TIMEOUT, error_type="TimeoutError")],
            total_cells=7,
            scale_digest="abc123",
        )
        path = manifest.save(tmp_path / "failures.json")
        loaded = FailureManifest.load(path)
        assert loaded.label == "build_zoo"
        assert loaded.total_cells == 7
        assert loaded.scale_digest == "abc123"
        assert loaded.created == manifest.created
        assert loaded.failures == manifest.failures  # incl. payload dicts

    def test_load_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FailureManifest.load(tmp_path / "nope.json")

    def test_load_garbage_raises_value_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ torn mid-wri")
        with pytest.raises(ValueError, match="unreadable failure manifest"):
            FailureManifest.load(bad)

    def test_load_wrong_shape_raises_value_error(self, tmp_path):
        for payload in (json.dumps([1, 2, 3]), json.dumps({"label": "x"})):
            path = tmp_path / "shape.json"
            path.write_text(payload)
            with pytest.raises(ValueError, match="not a failure manifest"):
                FailureManifest.load(path)

    def test_extend_and_iter(self):
        manifest = FailureManifest("g")
        manifest.extend([_failure("a"), _failure("b")])
        assert [f.key for f in manifest] == ["a", "b"]


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
        [loaded] = FailureManifest.load(path).failures
        assert loaded.timestamp == "2026-01-01T00:00:00"

    def test_deduped_keeps_latest_per_key_kind(self):
        old = _failure("a", timestamp="2026-01-01T00:00:00", attempts=1)
        new = _failure("a", timestamp="2026-01-02T00:00:00", attempts=2)
        other_kind = _failure("a", kind=KIND_TIMEOUT)
        manifest = FailureManifest("g", [old, other_kind, new])
        deduped = manifest.deduped()
        assert [(f.key, f.kind) for f in deduped] == [
            ("a", KIND_EXCEPTION),
            ("a", KIND_TIMEOUT),
        ]
        assert deduped[0].attempts == 2  # latest record won

    def test_save_dedupes_before_writing(self, tmp_path):
        manifest = FailureManifest("g", [_failure("a"), _failure("a")])
        path = manifest.save(tmp_path / "m.json")
        assert len(FailureManifest.load(path)) == 1


class TestMultiManifest:
    def _zoo_failure(self, key, repetition=0, **over):
        return _failure(
            key,
            payload={"kind": "zoo", "task": "cifar", "model": "resnet20",
                     "method": "wt", "repetition": repetition, "robust": False},
            **over,
        )

    def test_load_manifests_accepts_one_or_many(self, tmp_path):
        from repro.resilience import load_manifests

        manifest = FailureManifest("g", [_failure("a")])
        path = manifest.save(tmp_path / "m.json")
        assert [m.label for m in load_manifests(manifest)] == ["g"]
        assert [m.label for m in load_manifests(path)] == ["g"]
        assert [m.label for m in load_manifests([manifest, path])] == ["g", "g"]

    def test_specs_merge_and_dedupe_across_manifests(self, tmp_path):
        from repro.resilience.resume import zoo_specs_from_manifest

        first = FailureManifest(
            "g1", [self._zoo_failure("a", 0), self._zoo_failure("b", 1)]
        )
        second = FailureManifest(
            "g2", [self._zoo_failure("a", 0), self._zoo_failure("c", 2)]
        )
        # Manifests persisted by the durable work queue grids once ran
        # through record cells that burned their lease budget as kind
        # "quarantine"; a resume still rebuilds them.
        queued = FailureManifest(
            "g3", [self._zoo_failure("d", 3, kind="quarantine")]
        ).save(tmp_path / "queued.json")
        specs = zoo_specs_from_manifest([first, second, queued])
        assert [s.repetition for s in specs] == [0, 1, 2, 3]  # "a" deduped

    def test_resume_merged_manifests_with_no_zoo_cells_raises(self, tmp_path):
        from repro.resilience import resume_zoo

        first = FailureManifest("g1", [_failure("a", payload=None)])
        second = FailureManifest("g2", [_failure("b", payload=None)])
        with pytest.raises(ValueError, match="no resumable zoo cells"):
            resume_zoo([first, second], scale=_DigestScale())


class _DigestScale:
    def digest(self):
        return "micro-digest"


class TestDefaultManifestPath:
    def test_label_sanitized_and_pid_suffixed(self, tmp_path):
        import os

        path = default_manifest_path(tmp_path, "grid/eval cells [wt]")
        assert path.parent == tmp_path
        assert path.name.startswith("failures-grid_eval_cells_")
        assert path.name.endswith(f"-{os.getpid()}.json")
        assert "/" not in path.name and " " not in path.name
