"""Run-ledger streams: torn-line tolerance, worker merge, multiprocess use."""

import os

from repro import observe
from repro.observe.ledger import (
    iter_events,
    merge_worker_streams,
    worker_stream_path,
)
from repro.parallel import parallel_map


def _cell(x):
    """Worker-side grid cell (module-level for picklability)."""
    with observe.span("cell", item=x):
        observe.incr("cells")
    return x * x


class TestTornLines:
    def test_torn_tail_skipped(self, tmp_path):
        p = tmp_path / "run.jsonl"
        p.write_text('{"type":"event","name":"a","ts":1}\n{"type":"ev')
        events = list(iter_events(p))
        assert len(events) == 1
        assert events[0]["name"] == "a"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "run.jsonl"
        p.write_text('\n\n{"type":"event","name":"a","ts":1}\n\n')
        assert len(list(iter_events(p))) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert list(iter_events(tmp_path / "absent.jsonl")) == []


class TestWorkerMerge:
    def test_manual_merge_appends_and_unlinks(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        ledger.write_text('{"type":"event","name":"parent","ts":1}\n')
        stream = worker_stream_path(ledger, 1234)
        stream.write_text('{"type":"event","name":"child","ts":2}\n')
        assert merge_worker_streams(ledger) == 1
        assert not stream.exists()
        assert [e["name"] for e in iter_events(ledger)] == ["parent", "child"]

    def test_merge_noop_without_streams(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        ledger.write_text('{"type":"event","name":"parent","ts":1}\n')
        assert merge_worker_streams(ledger) == 0

    def test_merge_noop_when_disabled(self):
        assert merge_worker_streams() == 0

    def test_read_events_includes_unmerged_streams(self, tmp_path):
        """A crash before the merge must not lose worker records."""
        ledger = tmp_path / "run.jsonl"
        ledger.write_text('{"type":"event","name":"parent","ts":2}\n')
        stream = worker_stream_path(ledger, 99)
        stream.write_text('{"type":"event","name":"child","ts":1}\n')
        names = [e["name"] for e in observe.read_events(ledger)]
        assert names == ["child", "parent"]  # ts-ordered across streams


class TestMultiprocessLedger:
    def test_parallel_map_merges_worker_records(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        try:
            result = parallel_map(_cell, list(range(6)), jobs=2)
        finally:
            observe.shutdown()
        assert result == [0, 1, 4, 9, 16, 25]
        events = observe.read_events(path)
        cell_spans = [
            e for e in events if e.get("type") == "span" and e["name"] == "cell"
        ]
        assert len(cell_spans) == 6
        assert all(e["pid"] != os.getpid() for e in cell_spans)
        cells = sum(
            e["value"]
            for e in events
            if e.get("type") == "counter" and e["name"] == "cells"
        )
        assert cells == 6
        assert not list(path.parent.glob("*.worker-*.jsonl"))

    def test_worker_spans_parented_under_parallel_map(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        try:
            parallel_map(_cell, list(range(4)), jobs=2)
        finally:
            observe.shutdown()
        events = observe.read_events(path)
        [pm] = [
            e
            for e in events
            if e.get("type") == "span" and e["name"] == "parallel_map"
        ]
        cell_spans = [
            e for e in events if e.get("type") == "span" and e["name"] == "cell"
        ]
        assert all(e["parent"] == pm["id"] for e in cell_spans)

    def test_serial_jobs1_records_in_main_ledger(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        parallel_map(_cell, list(range(3)), jobs=1)
        observe.shutdown()
        events = observe.read_events(path)
        cell_spans = [
            e for e in events if e.get("type") == "span" and e["name"] == "cell"
        ]
        assert len(cell_spans) == 3
        assert all(e["pid"] == os.getpid() for e in cell_spans)
