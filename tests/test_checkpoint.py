"""Binary parameter container format."""

import numpy as np
import pytest

from graphmem.checkpoint import FORMAT_VERSION, CheckpointError, load_checkpoint, save_checkpoint


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
    assert np.frombuffer(blob[-8:], dtype="<f8")[0] == 1.0


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {})
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.arange(6.0)}, {"k": 1})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unreadable_metadata_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])}, {"k": 1})
    blob = path.read_bytes()
    meta_start = 12  # magic, version, metadata length
    meta_len = len(b'{"k": 1}')
    for bad_meta in (b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8", b'{"k": 1 '):
        assert len(bad_meta) == meta_len
        path.write_bytes(blob[:meta_start] + bad_meta + blob[meta_start + meta_len:])
        with pytest.raises(CheckpointError, match="metadata"):
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
    restored = ModelParams.from_arrays(ModelConfig.from_dict(meta["model"]), arrays)
    after = forward(graph, np.ones(1), restored, hops=3).probability.item()
    assert before == after
