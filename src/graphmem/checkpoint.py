"""Parameter checkpoints.

A flat binary container: magic + format version, a JSON metadata blob
(model shapes, task roster, run settings), then each parameter as
name, shape, and a little-endian float64 payload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GMNC"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is missing, truncated, malformed, or of an
    unsupported version."""


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, array in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", array.ndim))
            for dim in array.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return blob


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from None
    with fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"checkpoint format version {version} != supported {FORMAT_VERSION}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError("checkpoint parameter name is not UTF-8") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "rank"))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "dimension"))[0] for _ in range(ndim))
            n_values = 1
            for dim in shape:
                n_values *= dim
            payload = _read_exact(fh, 8 * n_values, f"payload of {name}")
            arrays[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
        return arrays, meta
