"""Acceptance: chaos kills a worker mid-build, the grid degrades to a
manifest, and --resume recomputes exactly the failed cells; a build
SIGKILLed whole resumes by running it again, rebuilding only what it had
not published — all of it verified against the run ledger's cache and
resilience counters."""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import observe
from repro.observe import load_report
from repro.resilience import FailureManifest, chaos, resume_zoo
from repro.resilience.failures import KIND_CRASH

pytestmark = pytest.mark.tier2


@pytest.fixture
def micro_zoo(tmp_path, monkeypatch):
    from repro.experiments import SMOKE

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "zoo"))
    monkeypatch.delenv(observe.DIR_ENV, raising=False)
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    monkeypatch.delenv(chaos.OWNER_ENV, raising=False)
    chaos.disable()
    scale = SMOKE.with_(
        n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
        parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,),
        n_repetitions=1,
    )
    ledger = observe.configure(dir=tmp_path / "obs")
    yield scale, ledger
    chaos.disable()
    observe.shutdown()


class TestDegradeAndResume:
    def test_worker_crash_degrades_then_resumes_warm(self, micro_zoo, tmp_path):
        from repro.experiments import ZooSpec, build_zoo

        scale, ledger = micro_zoo
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        ft_key = ZooSpec("cifar", "resnet20", "ft", 0).key(scale)

        # Hard-kill (os._exit) every worker that picks up the ft cell.
        # Workers are forked children, not the chaos owner, so the kill
        # is a real mid-build crash the engine must detect and retry.
        chaos.configure(crash_rate=1.0, seed=5, only_keys=("-ft-",))
        degraded = build_zoo(
            specs, scale, jobs=2, on_error="collect", max_retries=1
        )
        chaos.disable()

        # Surviving cells completed: parent + wt published, only ft died.
        assert degraded.degraded
        assert len(degraded.cells) == 2
        assert len(list((tmp_path / "zoo").glob("*.npz"))) == 2
        (failure,) = degraded.failures
        assert failure.key == ft_key
        assert failure.kind == KIND_CRASH
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == 2  # first run + one retry, both killed

        manifest = FailureManifest.load(degraded.manifest_path)
        assert manifest.keys == [ft_key]
        assert manifest.failures[0].payload["method"] == "ft"

        # Resume with chaos off: only the ft cell is recomputed; the
        # parent dependency resolves as a warm cache hit.
        resumed = resume_zoo(degraded.manifest_path, scale, jobs=1)
        assert not resumed.degraded
        parent_cell, ft_cell = resumed.cells
        assert parent_cell.cached and not ft_cell.cached
        assert len(list((tmp_path / "zoo").glob("*.npz"))) == 3

        observe.shutdown()
        report = load_report(ledger)
        # Cache accounting across both runs: misses are parent + wt from
        # the degraded build plus ft on resume; the single hit is the
        # resume's parent probe — i.e. exactly the failed cell was redone.
        assert report.counters.get("zoo.cache_hit", 0) == 1
        assert report.counters.get("zoo.cache_miss", 0) == 3
        # Resilience rollup: two crash detections (original + retry), one
        # dead cell, one degraded grid, one resume.
        rollup = report.resilience
        assert rollup is not None
        assert rollup["crashes"] == 2
        assert rollup["failed_cells"] == 1
        assert rollup["degraded_grids"] == 1
        assert rollup["resumes"] == 1
        assert "resilience:" in report.render()


_DRILL_BUILD = """
import pickle, sys
from repro.experiments import build_zoo
with open(sys.argv[1], "rb") as f:
    specs, scale = pickle.load(f)
build_zoo(specs, scale, jobs=2)
"""


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``, read from /proc."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2 :].split()[:4]
        if int(session) == sid and state not in ("Z", "X"):
            members.append(int(entry.name))
    return members


def _kill_session(proc: subprocess.Popen) -> None:
    """SIGKILL every process of ``proc``'s session and wait until none runs."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while _session_members(proc.pid):
        assert time.monotonic() < deadline, "killed session still has processes"
        time.sleep(0.01)


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads sessions from /proc"
)
class TestCrashResume:
    def test_sigkilled_build_reruns_only_unpublished_cells(self, micro_zoo, tmp_path):
        from repro.experiments import ZooSpec, build_zoo
        from repro.experiments.zoo import artifact_path
        from repro.verify import audit_path

        scale, ledger = micro_zoo
        # Retraining makes each prune run outlast the poll by a wide margin.
        scale = scale.with_(retrain_epochs=2, target_ratios=(0.3, 0.6))
        specs = [
            ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "sipp", "ft", "pfp")
        ]
        parent = ZooSpec("cifar", "resnet20", None, 0)
        prune_paths = [artifact_path(s, scale) for s in specs]
        paths = [artifact_path(parent, scale)] + prune_paths
        job = tmp_path / "drill.pkl"
        job.write_bytes(pickle.dumps((specs, scale)))

        # The chaos and ledger settings of this process stay out of the
        # build: it must die by the drill's SIGKILL and nothing else.
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith((chaos.ENV_VAR, observe.ENV_VAR))
        }
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        log = tmp_path / "drill.log"
        with log.open("wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-c", _DRILL_BUILD, str(job)],
                env=env,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 120
            while not any(p.exists() for p in prune_paths):
                if proc.poll() is not None or time.monotonic() > deadline:
                    pytest.fail(f"no prune-run artifact to kill at:\n{log.read_text()}")
                time.sleep(0.005)
        finally:
            _kill_session(proc)

        def stamp(path):
            st = path.stat()
            return st.st_ino, st.st_mtime_ns

        published = {p: stamp(p) for p in paths if p.exists()}
        unpublished = [p for p in paths if not p.exists()]
        assert artifact_path(parent, scale) in published
        assert unpublished, "the kill came after the whole grid was published"

        # The re-run reads every artifact published before the kill as a
        # cache hit, untouched (the dead holders' locks were released by
        # the kernel), and builds only the rest.
        resumed = build_zoo(specs, scale, jobs=2)
        assert not resumed.degraded
        assert {c.key for c in resumed.cells if c.cached} == {p.stem for p in published}
        assert {p: stamp(p) for p in published} == published
        assert all(p.exists() for p in paths)
        audit = audit_path(tmp_path / "zoo")
        assert audit.passed, audit.summary()

        observe.shutdown()
        report = load_report(ledger)
        assert report.counters.get("zoo.cache_hit", 0) == len(published)
        assert report.counters.get("zoo.cache_miss", 0) == len(unpublished)
        assert report.counters.get("cache.corrupt", 0) == 0
