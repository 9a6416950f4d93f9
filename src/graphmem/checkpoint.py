"""Parameter checkpoints.

A flat binary container: magic + format version, a JSON metadata blob
(model shapes, task roster, run settings), each parameter as name, shape,
and a little-endian float64 payload, then a SHA-256 digest of every
preceding byte, checked before anything after the version is parsed.

Format version 4 stores each gated update's weights stacked proposal over
gate (``ctrl.gated.*``, ``mem.gated.*``; see :mod:`graphmem.model`), of
``mem.gated.link`` only the 2R columns that train, and the digest. Earlier
versions are refused: 3 kept R(R + 1) link columns, 2 had no digest, and 1
stored separate proposal and gate blocks per relation.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GMNC"
FORMAT_VERSION = 4
DIGEST_SIZE = 32  # the SHA-256 trailer
MAX_RANK = 32  # the most dimensions every supported numpy version can reshape to


class CheckpointError(ValueError):
    """Checkpoint file is missing, truncated, corrupt, malformed, or of an
    unsupported version."""


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(data: bytes) -> None:
            fh.write(data)
            digest.update(data)

        put(MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_blob)) + meta_blob)
        put(struct.pack("<I", len(arrays)))
        for name, array in arrays.items():
            encoded = name.encode("utf-8")
            put(struct.pack("<H", len(encoded)) + encoded)
            put(struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape))
            put(np.ascontiguousarray(array, dtype="<f8").tobytes())
        fh.write(digest.digest())


class _Cursor:
    """Reads through ``data[:end]`` in order. A count beyond the bytes left
    is refused before anything is sliced, so a corrupt length or dimension
    field cannot ask for more than the file holds."""

    def __init__(self, data: bytes):
        self.data, self.at, self.end = memoryview(data), 0, len(data)

    def take(self, n: int, what: str) -> memoryview:
        if n > self.end - self.at:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        self.at += n
        return self.data[self.at - n:self.at]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from None
    cursor = _Cursor(data)
    if cursor.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    (version,) = cursor.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint format version {version} != supported {FORMAT_VERSION}")
    if cursor.end - cursor.at < DIGEST_SIZE:
        raise CheckpointError("truncated checkpoint while reading digest")
    cursor.end -= DIGEST_SIZE
    if hashlib.sha256(cursor.data[:cursor.end]).digest() != data[cursor.end:]:
        raise CheckpointError(f"{path} is corrupt: its SHA-256 digest does not match its contents")

    (meta_len,) = cursor.unpack("<I", "metadata length")
    try:
        meta = json.loads(bytes(cursor.take(meta_len, "metadata")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
    (count,) = cursor.unpack("<I", "parameter count")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cursor.unpack("<H", "name length")
        try:
            name = bytes(cursor.take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("checkpoint parameter name is not UTF-8") from None
        if name in arrays:
            raise CheckpointError(f"checkpoint lists parameter {name} twice")
        (ndim,) = cursor.unpack("<B", "rank")
        if ndim > MAX_RANK:
            raise CheckpointError(f"parameter {name} has rank {ndim} > {MAX_RANK}")
        shape = cursor.unpack(f"<{ndim}I", "dimension")
        payload = cursor.take(8 * math.prod(shape), f"payload of {name}")
        arrays[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    if cursor.end > cursor.at:
        raise CheckpointError(f"{cursor.end - cursor.at} unexpected bytes after the last parameter")
    return arrays, meta
