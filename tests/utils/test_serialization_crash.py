"""Crash injection: interrupted saves must never corrupt cached artifacts."""

from __future__ import annotations

import json
import struct
import zipfile

import numpy as np
import pytest

from repro.utils.serialization import load_state, save_state, try_load_state


def _crashing_savez(fh, **payload):
    """Simulate a crash mid-write: emit partial garbage, then die."""
    fh.write(b"PK\x03\x04 truncated garbage")
    raise RuntimeError("simulated crash mid-write")


class TestCrashSafety:
    def test_interrupted_save_preserves_existing_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.npz"
        original = {"w": np.arange(6.0).reshape(2, 3)}
        save_state(path, original, {"version": 1})

        monkeypatch.setattr(np, "savez_compressed", _crashing_savez)
        with pytest.raises(RuntimeError, match="simulated crash"):
            save_state(path, {"w": np.zeros((2, 3))}, {"version": 2})

        arrays, meta = load_state(path)  # the old artifact is untouched
        np.testing.assert_array_equal(arrays["w"], original["w"])
        assert meta == {"version": 1}
        assert list(tmp_path.iterdir()) == [path]  # and no temp litter

    def test_interrupted_first_save_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "fresh.npz"
        monkeypatch.setattr(np, "savez_compressed", _crashing_savez)
        with pytest.raises(RuntimeError):
            save_state(path, {"w": np.ones(3)})
        assert list(tmp_path.iterdir()) == []

    def test_save_is_staged_then_replaced(self, tmp_path):
        """A reader polling the final path never sees a partial archive."""
        path = tmp_path / "artifact.npz"
        save_state(path, {"w": np.ones(4)})
        first = path.read_bytes()
        save_state(path, {"w": np.full(4, 2.0)})
        arrays, _ = load_state(path)
        np.testing.assert_array_equal(arrays["w"], np.full(4, 2.0))
        assert path.read_bytes() != first


class TestTryLoad:
    def test_missing_returns_none(self, tmp_path):
        assert try_load_state(tmp_path / "nope.npz") is None

    def test_corrupt_returns_none(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"definitely not a zip archive")
        assert try_load_state(path) is None
        assert path.exists()  # try_load_state itself does not unlink

    def test_truncated_returns_none(self, tmp_path):
        path = tmp_path / "cut.npz"
        save_state(path, {"w": np.arange(100.0)})
        path.write_bytes(path.read_bytes()[:40])
        assert try_load_state(path) is None

    def test_flipped_blob_byte_returns_none(self, tmp_path):
        path = save_state(
            tmp_path / "flip.npz",
            {"w": np.random.default_rng(0).standard_normal(512).astype(np.float32)},
        )
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("__blob__.npy")
        # The member's data follows its local header (30 bytes, the name
        # and the extra field).
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        raw[start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert try_load_state(path) is None

    def test_index_entry_past_the_buffer_returns_none(self, tmp_path):
        path = tmp_path / "overrun.npz"
        index = [["w", "<f8", [4], 0], ["v", "<f8", [4], 64]]
        np.savez_compressed(
            path,
            __blob__=np.zeros(64, dtype=np.uint8),
            __index__=np.frombuffer(json.dumps(index).encode(), dtype=np.uint8),
            __meta__=np.frombuffer(b"{}", dtype=np.uint8),
        )
        assert try_load_state(path) is None

    def test_valid_roundtrip(self, tmp_path):
        path = tmp_path / "good.npz"
        save_state(path, {"w": np.arange(3.0)}, {"k": "v"})
        loaded = try_load_state(path)
        assert loaded is not None
        arrays, meta = loaded
        np.testing.assert_array_equal(arrays["w"], np.arange(3.0))
        assert meta == {"k": "v"}
