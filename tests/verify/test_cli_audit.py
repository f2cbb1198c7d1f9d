"""``python -m repro verify``: passes on a fresh zoo, catches corruption."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments import SMOKE, ZooSpec, zoo
from repro.utils.serialization import load_state, save_state
from repro.verify import VerificationError, audit_path

MICRO = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=1,
)


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    """A freshly built tiny zoo (1 parent, wt + ft prune runs)."""
    cache = tmp_path_factory.mktemp("zoo")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        zoo.build_zoo(specs, MICRO, jobs=1)
        yield cache
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


def _prune_run_artifact(directory):
    path = next(p for p in sorted(directory.glob("*.npz")) if "-wt-" in p.name)
    return path


def _revive_masked_weight(path):
    """Rewrite the artifact with one checkpoint weight revived behind its mask."""
    arrays, meta = load_state(path)
    for key in sorted(arrays):
        if key.startswith("ckpt0/") and key.endswith(".weight_mask"):
            weight_key = key[: -len("_mask")]
            mask = arrays[key]
            idx = np.argwhere(mask == 0)
            if len(idx):
                weight = arrays[weight_key].copy()
                weight[tuple(idx[0])] = 7.0
                arrays[weight_key] = weight
                save_state(path, arrays, meta)
                return
    raise AssertionError("no masked checkpoint weight to corrupt")


class TestCliAudit:
    def test_fresh_zoo_passes(self, zoo_dir, capsys):
        assert main(["verify", str(zoo_dir)]) == 0
        assert "checks passed" in capsys.readouterr().out
        # --deep adds a save/load round-trip of every artifact.
        assert main(["verify", str(zoo_dir), "--deep"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_default_path_is_cache_dir(self, zoo_dir, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(zoo_dir))
        assert main(["verify"]) == 0
        capsys.readouterr()

    def test_corrupted_artifact_detected(self, zoo_dir, tmp_path, capsys):
        audited = tmp_path / "zoo"
        shutil.copytree(zoo_dir, audited)
        _revive_masked_weight(_prune_run_artifact(audited))
        assert main(["verify", str(audited)]) == 1
        assert "mask_weight_consistency" in capsys.readouterr().out
        report = audit_path(audited)
        assert any("mask_weight_consistency" in r.name for r in report.failures)

    def test_misrecorded_ratio_detected(self, zoo_dir, tmp_path):
        audited = tmp_path / "zoo"
        shutil.copytree(zoo_dir, audited)
        path = _prune_run_artifact(audited)
        arrays, meta = load_state(path)
        meta["checkpoints"][0]["achieved_ratio"] += 0.2
        save_state(path, arrays, meta)
        report = audit_path(audited)
        assert any("reported_ratio_matches" in r.name for r in report.failures)

    def test_unreadable_artifact_detected(self, tmp_path, capsys):
        (tmp_path / "broken.npz").write_bytes(b"not an archive")
        assert main(["verify", str(tmp_path)]) == 1
        assert "readable" in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 1
        assert "artifacts_found" in capsys.readouterr().out

    def test_single_artifact_and_deep_audit(self, zoo_dir, capsys):
        path = _prune_run_artifact(zoo_dir)
        assert main(["verify", str(path), "--deep"]) == 0
        capsys.readouterr()

    def test_json_report_and_verbose(self, zoo_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", str(zoo_dir), "--json", str(out), "--verbose"]) == 0
        assert "[ok]" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["results"]


class TestCacheHitVerification:
    def test_loaded_run_verified_on_cache_hit(self, zoo_dir, tmp_path, monkeypatch):
        audited = tmp_path / "zoo"
        shutil.copytree(zoo_dir, audited)
        _revive_masked_weight(_prune_run_artifact(audited))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(audited))
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(VerificationError, match="mask_weight_consistency"):
            zoo.get_prune_run(ZooSpec("cifar", "resnet20", "wt", 0), MICRO)

    def test_cache_hit_clean_when_disabled(self, zoo_dir, tmp_path, monkeypatch):
        audited = tmp_path / "zoo"
        shutil.copytree(zoo_dir, audited)
        _revive_masked_weight(_prune_run_artifact(audited))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(audited))
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        run = zoo.get_prune_run(ZooSpec("cifar", "resnet20", "wt", 0), MICRO)
        assert run.checkpoints
