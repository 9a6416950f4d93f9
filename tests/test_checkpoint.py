"""Binary parameter container format."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from graphmem.checkpoint import (DIGEST_SIZE, FORMAT_VERSION, MAGIC, CheckpointError, load_checkpoint,
                                 save_checkpoint)


def resigned(body: bytes) -> bytes:
    """``body``, a checkpoint without its digest, with a digest that fits it:
    doctored bytes that still pass the digest check, so that a test reaches
    the check it names."""
    return body + hashlib.sha256(body).digest()


def checkpoint_bytes(entries, meta: dict) -> bytes:
    """A checkpoint written field by field, digest included, that lists the
    (name, array) ``entries`` in order, repeated names and all."""
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_blob)) + meta_blob + struct.pack("<I", len(entries))
    for name, array in entries:
        encoded = name.encode("utf-8")
        body += struct.pack("<H", len(encoded)) + encoded + struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
        body += np.ascontiguousarray(array, dtype="<f8").tobytes()
    return resigned(body)


def test_roundtrip(tmp_path):
    arrays = {
        "layer.weight": np.arange(12.0).reshape(3, 4),
        "layer.bias": np.array([1.5, -2.5, 3.25]),
        "scalar": np.array([7.0]),
    }
    meta = {"model": {"memory_size": 3}, "tasks": ["a", "b"]}
    path = tmp_path / "model.bin"
    save_checkpoint(path, arrays, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64


def test_payload_is_little_endian_float64(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {})
    blob = path.read_bytes()
    assert np.frombuffer(blob[-DIGEST_SIZE - 8:-DIGEST_SIZE], dtype="<f8")[0] == 1.0


def test_trailer_is_the_sha256_of_every_preceding_byte(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.arange(3.0)}, {"k": 1})
    blob = path.read_bytes()
    assert blob[-DIGEST_SIZE:] == hashlib.sha256(blob[:-DIGEST_SIZE]).digest()


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {})
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_earlier_versions_refused_naming_the_version(tmp_path, version):
    # the bytes after the version are a well-formed file of this format,
    # digest included: the version alone refuses it
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {"k": 1})
    blob = bytearray(path.read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(resigned(bytes(blob[:-DIGEST_SIZE])))
    with pytest.raises(CheckpointError, match=f"format version {version} != supported {FORMAT_VERSION}"):
        load_checkpoint(path)


def test_parameter_listed_twice_rejected(tmp_path):
    entries = [("out.weight", np.arange(4.0).reshape(2, 2)), ("out.bias", np.array([0.5]))]
    meta = {"k": 1}
    path = tmp_path / "model.bin"
    save_checkpoint(path, dict(entries), meta)
    assert checkpoint_bytes(entries, meta) == path.read_bytes()  # the hand-written file is a real one
    path.write_bytes(checkpoint_bytes([*entries, ("out.bias", np.array([123.0]))], meta))
    with pytest.raises(CheckpointError, match="checkpoint lists parameter out.bias twice"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.arange(6.0)}, {"k": 1})
    path.write_bytes(resigned(path.read_bytes()[:-DIGEST_SIZE - 5]))
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading payload of w"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.arange(6.0)}, {"k": 1})
    path.write_bytes(resigned(path.read_bytes()[:-DIGEST_SIZE] + b"garbage"))
    with pytest.raises(CheckpointError, match="7 unexpected bytes after the last parameter"):
        load_checkpoint(path)


def test_oversized_dimensions_rejected_before_reading(tmp_path):
    # three dimensions of 0xFFFFFFFF ask for about 6e29 bytes; the file
    # holds 8, so the read is refused rather than attempted
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.zeros((1, 1, 1))}, {"k": 1})
    body = path.read_bytes()[:-DIGEST_SIZE]
    dims = len(body) - 8 - 12
    path.write_bytes(resigned(body[:dims] + b"\xff" * 12 + body[dims + 12:]))
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading payload of w"):
        load_checkpoint(path)


def small_checkpoint(tmp_path) -> bytes:
    path = tmp_path / "small.bin"
    save_checkpoint(path, {"a.weight": np.arange(6.0).reshape(2, 3), "a.bias": np.array([0.5, -1.0])},
                    {"model": {"memory_size": 2}, "tasks": ["t"]})
    return path.read_bytes()


def test_fuzz_truncation_at_every_byte_rejected(tmp_path):
    blob = small_checkpoint(tmp_path)
    path = tmp_path / "cut.bin"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_fuzz_single_byte_flips_raise_only_checkpoint_errors(tmp_path):
    # every flip, in a payload or in the digest too, is refused: the magic
    # and the version by their own checks, every other byte by the digest
    blob = small_checkpoint(tmp_path)
    path = tmp_path / "flipped.bin"
    rng = np.random.default_rng(0)
    for position in range(len(blob)):
        for mask in [0xFF, 0x80, 0x01] + rng.integers(1, 256, size=3).tolist():
            flipped = bytearray(blob)
            flipped[position] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match="magic" if position < 4 else
                               "version" if position < 8 else re.escape(f"{path} is corrupt")):
                load_checkpoint(path)


def test_unreadable_metadata_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {"k": 1})
    body = path.read_bytes()[:-DIGEST_SIZE]
    meta_start = 12  # magic, version, metadata length
    meta_len = len(b'{"k": 1}')
    for bad_meta in (b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8", b'{"k": 1 '):
        assert len(bad_meta) == meta_len
        path.write_bytes(resigned(body[:meta_start] + bad_meta + body[meta_start + meta_len:]))
        with pytest.raises(CheckpointError, match="checkpoint metadata is not UTF-8 JSON"):
            load_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot open"):
        load_checkpoint(tmp_path / "absent.bin")


def test_restored_model_predicts_bitwise_identically(tmp_path):
    from graphmem.model import ModelConfig, ModelParams, forward
    from graphmem.molgraph import SYNTHETIC_ALPHABET, featurize, link_feature_dim, node_feature_dim, random_graph

    config = ModelConfig(
        node_feat_dim=node_feature_dim(SYNTHETIC_ALPHABET),
        link_feat_dim=link_feature_dim(2),
        n_relations=2, query_dim=1, memory_size=6, controller_size=6,
    )
    params = ModelParams.initialize(config, seed=3)
    graph = featurize(random_graph(np.random.default_rng(1), 4, 8, 2), SYNTHETIC_ALPHABET)
    before = forward(graph, np.ones(1), params, hops=3).probability.item()

    path = tmp_path / "model.bin"
    save_checkpoint(path, params.arrays(), {"model": config.to_dict()})
    arrays, meta = load_checkpoint(path)
    restored = ModelParams.initialize(ModelConfig.from_dict(meta["model"]), 0)
    restored.load_arrays(arrays)
    after = forward(graph, np.ones(1), restored, hops=3).probability.item()
    assert before == after
