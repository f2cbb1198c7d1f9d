"""Serialization of model / experiment state to ``.npz`` archives.

State dicts map string keys to numpy arrays.  An archive holds three
members, whatever the number of arrays:

- ``__blob__``: every array's bytes in C order, packed into one ``uint8``
  buffer, each array starting at a multiple of 64 bytes;
- ``__index__``: JSON ``[name, dtype string, shape, offset]`` per array,
  in saved key order;
- ``__meta__``: nested metadata (scalars, strings) as JSON.

``np.load`` pays a zip entry and a parsed ``.npy`` header per member, so
one buffer per archive, not one member per array, is what keeps a load
cheap.  Archives written one member per array (the layout before the
buffer) still load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.parallel.locks import atomic_write

_META_KEY = "__meta__"
_INDEX_KEY = "__index__"
_BLOB_KEY = "__blob__"
_RESERVED = (_META_KEY, _INDEX_KEY, _BLOB_KEY)
_ALIGN = 64


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


def _json_bytes(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def _pack(arrays: Mapping[str, np.ndarray]) -> tuple[np.ndarray, list]:
    """One aligned ``uint8`` buffer holding every array, and its index."""
    index, values, offset = [], [], 0
    for name, value in arrays.items():
        if name in _RESERVED:
            raise ValueError(f"array key {name!r} is reserved")
        # Shape and dtype from asarray: ascontiguousarray makes 0-d arrays 1-d.
        value = np.asarray(value)
        if value.dtype.hasobject or np.dtype(value.dtype.str) != value.dtype:
            raise ValueError(f"array {name!r}: dtype {value.dtype} cannot be stored")
        index.append([name, value.dtype.str, list(value.shape), offset])
        values.append(value)
        offset += -(-value.nbytes // _ALIGN) * _ALIGN
    blob = np.zeros(offset, dtype=np.uint8)
    for (_, _, _, start), value in zip(index, values):
        raw = np.ascontiguousarray(value).reshape(-1).view(np.uint8)
        blob[start : start + raw.size] = raw
    return blob, index


def _unpack(blob: np.ndarray, index: list) -> dict[str, np.ndarray]:
    """Views into ``blob``; numpy rejects an entry that overruns it."""
    return {
        name: np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=blob, offset=offset)
        for name, dtype, shape, offset in index
    }


def save_state(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Save ``arrays`` (and optional JSON-serializable ``meta``) to ``path``.

    The write is atomic: the archive is staged to a temporary file in the
    destination directory and promoted with ``os.replace``, so a crash
    mid-write never corrupts an existing artifact and concurrent readers
    only ever see complete archives.  Returns the resolved path with a
    ``.npz`` suffix.
    """
    path = _npz_path(path)
    blob, index = _pack(arrays)
    payload = {
        _BLOB_KEY: blob,
        _INDEX_KEY: _json_bytes(index),
        _META_KEY: _json_bytes(dict(meta or {})),
    }
    with atomic_write(path) as tmp:
        # Write through a file handle: savez would append ".npz" to the
        # temp name and break the atomic-replace pairing.
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
    # Fault injection: may tear (truncate) the published archive, as a
    # crashed copy or lost page would.  No-op unless chaos is enabled.
    from repro.resilience import chaos

    chaos.on_publish(path)
    return path


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Load arrays and metadata previously written by :func:`save_state`.

    The arrays come back in saved key order as writeable, aligned views
    into the archive's one buffer.
    """
    with np.load(_npz_path(path)) as archive:
        meta: dict[str, Any] = {}
        if _META_KEY in archive.files:
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
        if _BLOB_KEY in archive.files:
            index = json.loads(archive[_INDEX_KEY].tobytes().decode("utf-8"))
            return _unpack(archive[_BLOB_KEY], index), meta
        # An archive written one member per array.
        arrays = {k: archive[k] for k in archive.files if k != _META_KEY}
    return arrays, meta


def try_load_state(
    path: str | Path,
) -> tuple[dict[str, np.ndarray], dict[str, Any]] | None:
    """Like :func:`load_state`, but ``None`` if missing/unreadable/corrupt.

    Cache layers treat a truncated or garbage archive (e.g. from a write
    interrupted before atomic saves existed, or a torn copy) as a miss
    rather than a permanent failure.
    """
    path = _npz_path(path)
    if not path.exists():
        return None
    try:
        return load_state(path)
    except Exception:
        return None
