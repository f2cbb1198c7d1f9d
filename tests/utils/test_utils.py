"""Utility modules: rng discipline, serialization, table rendering."""

import json

import numpy as np
import pytest

from repro.utils.rng import RngMixin, as_rng, spawn_rng
from repro.utils.serialization import load_state, save_state
from repro.utils.tables import format_mean_std, format_table


class TestRng:
    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_from_seed_deterministic(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_as_rng_none_works(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent(self):
        children = spawn_rng(as_rng(0), 3)
        assert len(children) == 3
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rng(as_rng(1), 2)]
        b = [g.random() for g in spawn_rng(as_rng(1), 2)]
        assert a == b

    def test_spawn_invalid(self):
        with pytest.raises(ValueError):
            spawn_rng(as_rng(0), 0)

    def test_mixin_lazy_seed(self):
        class Thing(RngMixin):
            _seed = 3

        t = Thing()
        first = t.rng.random()
        t.seed(3)
        assert t.rng.random() == first


ROUNDTRIP_CASES = {
    "zero_d": np.array(2.5),
    "zero_size": np.zeros((0, 3), dtype=np.float32),
    "bool": np.array([True, False, True]),
    "int64": np.arange(-3, 4, dtype=np.int64),
    "float16": np.linspace(-1, 1, 5).astype(np.float16),
    "unicode": np.array(["ab", "wxyz", ""], dtype="<U4"),
    "big_endian": np.arange(6, dtype=">f4").reshape(2, 3),
    "non_contiguous": np.arange(24.0).reshape(4, 6)[::2, ::3],
    "fortran": np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4)),
}


class TestSerialization:
    @pytest.mark.parametrize("case", list(ROUNDTRIP_CASES))
    def test_roundtrip_preserves_every_array_property(self, tmp_path, case):
        # The case sits between two float32 arrays, so a layout bug in
        # one entry's offset or size shows in its neighbours too.
        arrays = {
            "before": np.arange(3, dtype=np.float32),
            case: ROUNDTRIP_CASES[case],
            "after": np.ones((2, 2), dtype=np.float32),
        }
        loaded, meta = load_state(save_state(tmp_path / "s", arrays, {"k": 1}))
        assert list(loaded) == list(arrays)
        assert meta == {"k": 1}
        for name, want in arrays.items():
            got = loaded[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.flags.writeable and got.flags.aligned, name

    def test_roundtrip_arrays_and_meta(self, tmp_path):
        arrays = {"a": np.arange(5), "b/c": np.ones((2, 2), dtype=np.float32)}
        meta = {"name": "x", "value": 3, "nested": {"k": [1, 2]}}
        path = save_state(tmp_path / "state", arrays, meta)
        assert path.suffix == ".npz"
        loaded, loaded_meta = load_state(path)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b/c"], arrays["b/c"])
        assert loaded_meta == meta

    def test_no_meta(self, tmp_path):
        path = save_state(tmp_path / "s", {"x": np.zeros(1)})
        _, meta = load_state(path)
        assert meta == {}

    def test_reserved_key_rejected(self, tmp_path):
        for key in ("__meta__", "__index__", "__blob__"):
            with pytest.raises(ValueError):
                save_state(tmp_path / "s", {key: np.zeros(1)})

    def test_archive_holds_three_members(self, tmp_path):
        arrays = {f"w{i}": np.full(i + 1, float(i)) for i in range(10)}
        with np.load(save_state(tmp_path / "s", arrays)) as archive:
            assert sorted(archive.files) == ["__blob__", "__index__", "__meta__"]

    def test_per_member_archive_still_loads(self, tmp_path):
        """Archives written one member per array, as before the buffer
        layout, load with their key order, dtypes and metadata."""
        arrays = {
            "parent/w": np.arange(6.0, dtype=np.float32).reshape(2, 3),
            "parent/w_mask": np.ones((2, 3), dtype=np.float32),
            "ckpt0/steps": np.array(4, dtype=np.int64),
        }
        meta = {"method_name": "wt", "checkpoints": [{"test_error": 0.25}]}
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            **arrays,
            __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        )
        loaded, loaded_meta = load_state(path)
        assert list(loaded) == list(arrays)
        assert loaded_meta == meta
        for name, want in arrays.items():
            assert loaded[name].dtype == want.dtype
            np.testing.assert_array_equal(loaded[name], want)

    def test_load_without_suffix(self, tmp_path):
        save_state(tmp_path / "s", {"x": np.ones(2)})
        arrays, _ = load_state(tmp_path / "s")
        np.testing.assert_array_equal(arrays["x"], np.ones(2))

    def test_creates_parent_dirs(self, tmp_path):
        path = save_state(tmp_path / "deep" / "nested" / "s", {"x": np.zeros(1)})
        assert path.exists()


class TestTables:
    def test_alignment_and_structure(self):
        text = format_table(["A", "Bee"], [["x", 1.234], ["yy", 10.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| A")
        assert "1.23" in text

    def test_title(self):
        text = format_table(["A"], [["x"]], title="T")
        assert text.startswith("### T")

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = format_table(["A"], [])
        assert "A" in text

    def test_mean_std(self):
        assert format_mean_std(84.92, 0.04) == "84.9 ± 0.0"
        assert format_mean_std(1.234, 0.567, digits=2) == "1.23 ± 0.57"
