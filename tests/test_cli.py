"""End-to-end command behavior, exit codes, and manifest reproducibility."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from graphmem.checkpoint import DIGEST_SIZE, FORMAT_VERSION, load_checkpoint, save_checkpoint
from graphmem.cli import _COMMAND_KEYS, _CONFIG_TYPES, main
from graphmem.model import MAX_HOPS, MAX_WIDTH, ModelConfig, ModelParams
from graphmem.molgraph import (
    DEFAULT_VOCAB,
    N_BOND_TYPES,
    featurize,
    link_feature_dim,
    node_feature_dim,
    parse_sdf,
    random_graph,
    write_molfile,
)

from _oracles import atom_identifiers_oracle, fold_oracle, hex_oracle
from test_checkpoint import checkpoint_bytes, resigned
from test_molgraph import molblock
from test_training import misslotted

SPEC_TEXT = (
    "nodes_min=6\nnodes_max=9\nrelations=2\nmotif=triangle:1\nbalance=0.5\ncount=40\n"
)

CONFIG_TEXT = """\
hops=2
memory_size=8
controller_size=8
dropout=0.0
learning_rate=3e-3
batch_size=8
max_epochs=3
patience=5
seed=1
mode=single
tasks=tri
"""


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "tri.synth").write_text(SPEC_TEXT, encoding="utf-8")
    (tmp_path / "cfg").write_text(CONFIG_TEXT + f"data_dir={tmp_path}\n", encoding="utf-8")
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def save_assay_checkpoint(path):
    """A freshly initialised single-task checkpoint for task ``assay`` with
    the default vocabulary."""
    config = ModelConfig(node_feat_dim=node_feature_dim(DEFAULT_VOCAB),
                         link_feat_dim=link_feature_dim(N_BOND_TYPES), n_relations=N_BOND_TYPES,
                         query_dim=1, memory_size=4, controller_size=4)
    save_checkpoint(path, ModelParams.initialize(config, 0).arrays(),
                    {"model": config.to_dict(), "tasks": ["assay"], "mode": "single", "hops": 2,
                     "vocab": list(DEFAULT_VOCAB), "seed": 0})


class TestTrain:
    def test_train_writes_artifacts(self, workspace, capsys):
        out = workspace / "run"
        assert run("train", "--config", workspace / "cfg", "--out-dir", out, "--quiet") == 0
        for name in ("checkpoint.bin", "metrics.json", "epochs.log", "manifest.json"):
            assert (out / name).is_file(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert "micro_f1" in metrics and "average_auc" in metrics
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["seed"] == 1
        assert "tri.synth" in manifest["datasets"]["tri"]
        log_lines = (out / "epochs.log").read_text().strip().splitlines()
        assert len(log_lines) == 3
        assert all("train_loss" in line and "val_avg_auc" in line for line in log_lines)

    def test_rerun_reproduces_metrics_bit_identically(self, workspace):
        out_a, out_b = workspace / "a", workspace / "b"
        assert run("train", "--config", workspace / "cfg", "--out-dir", out_a, "--quiet") == 0
        assert run("train", "--config", workspace / "cfg", "--out-dir", out_b, "--quiet") == 0
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_missing_dataset_is_data_error(self, workspace, capsys):
        code = run("train", "--config", workspace / "cfg", "--set", "tasks=absent",
                   "--out-dir", workspace / "x", "--quiet")
        assert code == 3
        assert "absent" in capsys.readouterr().err

    def test_a_run_train_refuses_leaves_no_epochs_log(self, tmp_path, capsys):
        # 7 records split 5/0/2: train itself refuses the empty val split,
        # after the out dir is made but before the first epoch is logged
        TestBalanceFlag().make_disk_task(tmp_path, [1, 1, 1, 1, 1, 0, 0])
        code = run("train", "--set", f"data_dir={tmp_path}", "--set", "tasks=assay", "--set", "max_epochs=1",
                   "--out-dir", tmp_path / "out", "--quiet")
        assert code == 3
        assert "task 'assay' has an empty val split" in capsys.readouterr().err
        assert not (tmp_path / "out" / "epochs.log").exists()

    def test_missing_labels_file_is_data_error(self, workspace, capsys):
        task_dir = workspace / "realmol"
        task_dir.mkdir()
        (task_dir / "molecules.sdf").write_text(molblock(["C"], []) + "$$$$\n", encoding="utf-8")
        code = run("train", "--config", workspace / "cfg", "--set", "tasks=realmol",
                   "--out-dir", workspace / "x", "--quiet")
        assert code == 3
        assert "labels.csv" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, workspace, capsys):
        (workspace / "bad").write_text("frobnicate=1\n", encoding="utf-8")
        assert run("train", "--config", workspace / "bad", "--out-dir", workspace / "x") == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_repeated_vocab_symbol_is_config_error(self, workspace, capsys):
        # from --set and from a config file, before any data is read
        (workspace / "repeats").write_text(CONFIG_TEXT + "vocab=A,B,A\n", encoding="utf-8")
        for source in (("--config", workspace / "cfg", "--set", "vocab=C,N,C"), ("--config", workspace / "repeats")):
            assert run("train", *source, "--out-dir", workspace / "x", "--quiet") == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and "vocab" in err
        assert not (workspace / "x").exists()

    @pytest.mark.parametrize("setting, message", [
        ("memory_size=0", "memory_size must be >= 1"),
        ("controller_size=0", "controller_size must be >= 1"),
        ("memory_size=-3", "memory_size must be >= 1"),
    ])
    def test_bad_model_width_is_config_error(self, workspace, capsys, setting, message):
        code = run("train", "--config", workspace / "cfg", "--set", setting, "--out-dir", workspace / "x", "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (workspace / "x" / "checkpoint.bin").exists()

    def test_widths_past_the_bound_are_refused_before_any_data_is_read(self, workspace, capsys):
        # the widths at the bound are accepted without allocating anything;
        # one past it is exit 2 even when the data directory does not exist
        from graphmem.training import ExperimentConfig

        at_bound = ExperimentConfig(memory_size=MAX_WIDTH, controller_size=MAX_WIDTH)
        assert (at_bound.memory_size, at_bound.controller_size) == (MAX_WIDTH, MAX_WIDTH)
        ModelConfig(node_feat_dim=1, link_feat_dim=link_feature_dim(4), n_relations=4, query_dim=1,
                    memory_size=MAX_WIDTH, controller_size=MAX_WIDTH)
        for key in ("memory_size", "controller_size"):
            with pytest.raises(ValueError, match=f"{key} must be <= {MAX_WIDTH}"):
                ModelConfig(**{"node_feat_dim": 1, "link_feat_dim": link_feature_dim(4), "n_relations": 4, "query_dim": 1,
                               "memory_size": 4, "controller_size": 4, key: MAX_WIDTH + 1})
            for value in (MAX_WIDTH + 1, 4096):
                capsys.readouterr()
                code = run("train", "--config", workspace / "cfg", "--set", f"{key}={value}",
                           "--set", f"data_dir={workspace / 'missing'}", "--out-dir", workspace / "out", "--quiet")
                assert code == 2, (key, value)
                assert f"{key} must be <= {MAX_WIDTH}, got {value}" in capsys.readouterr().err

    def test_hops_past_the_bound_are_refused_before_any_data_is_read(self, workspace, capsys):
        # the bound itself is accepted, in a config and in checkpoint
        # metadata, and a billion hops refused, without running a forward;
        # a config one past the bound is exit 2 even when the data
        # directory does not exist
        from graphmem.checkpoint import CheckpointError
        from graphmem.cli import _check_run_meta
        from graphmem.training import ExperimentConfig

        assert ExperimentConfig(hops=MAX_HOPS).hops == MAX_HOPS
        config = ModelConfig(node_feat_dim=1, link_feat_dim=link_feature_dim(1), n_relations=1, query_dim=1,
                             memory_size=1, controller_size=1)
        meta = {"tasks": ["tri"], "mode": "single", "hops": MAX_HOPS, "seed": 0}
        _check_run_meta(meta, config)
        with pytest.raises(CheckpointError, match=f"hops must be an integer >= 1 and <= {MAX_HOPS}, got 1000000000"):
            _check_run_meta({**meta, "hops": 10 ** 9}, config)
        for value in (MAX_HOPS + 1, 200000):
            capsys.readouterr()
            code = run("train", "--config", workspace / "cfg", "--set", f"hops={value}",
                       "--set", f"data_dir={workspace / 'missing'}", "--out-dir", workspace / "out", "--quiet")
            assert code == 2, value
            assert f"hops must be >= 1 and <= {MAX_HOPS}, got {value}" in capsys.readouterr().err
            assert not (workspace / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ("learning_rate=nan", "learning_rate must be finite and > 0, got nan"),
        ("learning_rate=-0.1", "learning_rate must be finite and > 0, got -0.1"),
    ])
    def test_optimiser_setting_that_cannot_train_is_config_error(self, workspace, capsys, setting, message):
        code = run("train", "--config", workspace / "cfg", "--set", setting, "--out-dir", workspace / "x", "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err and "Traceback" not in err
        assert not (workspace / "x").exists()  # refused before the run starts

    @pytest.mark.parametrize("setting", ["raw_embedding=true", "beta1=0.5", "beta2=0.5", "epsilon=1e-8"])
    def test_removed_setting_is_unknown_key(self, workspace, capsys, setting):
        # the memory always starts from the learned embedding, and Adam's
        # decays and floor are constants of graphmem.training
        code = run("train", "--config", workspace / "cfg", "--set", setting, "--out-dir", workspace / "x", "--quiet")
        assert code == 2
        assert f"unknown config key {setting.partition('=')[0]!r}" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_no_tasks_is_config_error(self, tmp_path):
        (tmp_path / "cfg").write_text("mode=single\n", encoding="utf-8")
        assert run("train", "--config", tmp_path / "cfg", "--out-dir", tmp_path / "x") == 2

    def test_multi_mode_single_task_runs(self, workspace):
        out = workspace / "multi1"
        assert run("train", "--config", workspace / "cfg", "--mode", "multi",
                   "--out-dir", out, "--quiet") == 0
        assert (out / "metrics.json").is_file()

    def test_tasks_of_different_relation_counts_train_and_eval(self, workspace):
        # a multi-mode roster of .synth tasks with 2 and 3 relations: the
        # model takes the most relations, and its link width is theirs
        (workspace / "tri3.synth").write_text(SPEC_TEXT.replace("relations=2", "relations=3"), encoding="utf-8")
        out = workspace / "mixed"
        assert run("train", "--config", workspace / "cfg", "--mode", "multi", "--set", "tasks=tri,tri3",
                   "--out-dir", out / "train", "--quiet") == 0
        _, meta = load_checkpoint(out / "train" / "checkpoint.bin")
        assert (meta["model"]["n_relations"], meta["model"]["link_feat_dim"]) == (3, link_feature_dim(3))
        assert run("eval", "--checkpoint", out / "train" / "checkpoint.bin", "--set", f"data_dir={workspace}",
                   "--out-dir", out / "eval") == 0

    def test_seed_flag_overrides_config(self, workspace):
        out = workspace / "seeded"
        assert run("train", "--config", workspace / "cfg", "--seed", "42",
                   "--out-dir", out, "--quiet") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42


class TestConfigKeys:
    def test_the_config_keys(self):
        # the twelve run settings, then the keys only the command line reads
        import dataclasses

        from graphmem.cli import _CONFIG_TYPES
        from graphmem.training import ExperimentConfig

        settings = ["hops", "memory_size", "controller_size", "dropout", "learning_rate", "batch_size",
                    "max_epochs", "patience", "seed", "tasks", "mode", "neighbor_mode"]
        assert [field.name for field in dataclasses.fields(ExperimentConfig)] == settings
        assert list(_CONFIG_TYPES) == settings + ["vocab", "data_dir", "nbits", "radius", "balance"]
        assert [field.name for field in dataclasses.fields(ModelConfig)] == [
            "node_feat_dim", "link_feat_dim", "n_relations", "query_dim", "memory_size", "controller_size",
            "neighbor_mode"]

    @pytest.mark.parametrize("text, value", [("1", True), (" On ", True), ("no", False), ("FALSE", False),
                                             ("y", None)])
    def test_balance_reads_a_boolean(self, text, value):
        # balance is the one boolean key: it alone reaches _parse_bool
        import argparse

        from graphmem.cli import resolve_config
        from graphmem.training import ConfigError

        args = argparse.Namespace(command="train", set=[f"balance={text}"])
        if value is None:
            with pytest.raises(ConfigError, match="config key 'balance': cannot parse"):
                resolve_config(args)
        else:
            assert resolve_config(args)["balance"] is value

    def test_every_experiment_field_is_a_config_key_with_its_type(self):
        # each field read back from its text through --set, as its own type
        import argparse
        import dataclasses

        from graphmem.cli import experiment_config, resolve_config
        from graphmem.training import ExperimentConfig

        example = dataclasses.replace(ExperimentConfig(), tasks=("tri", "other"), learning_rate=0.25, mode="multi")
        for field in dataclasses.fields(ExperimentConfig):
            value = getattr(example, field.name)
            text = ",".join(value) if isinstance(value, tuple) else str(value)
            args = argparse.Namespace(command="train", set=[f"{field.name}={text}"])
            parsed = getattr(experiment_config(resolve_config(args)), field.name)
            assert parsed == value and type(parsed) is type(value), field.name

    # hops and max_epochs stay at most 3: max_epochs has no upper limit, and
    # hops up to model.MAX_HOPS cost a hop each (those past it are probed in
    # TestTrain, with no data to train on). The widths and radius are probed
    # in full: the probes at most model.MAX_WIDTH and fingerprint.MAX_RADIUS
    # are small, and larger ones are refused before any work.
    SMALL = {"hops": 3, "max_epochs": 3}
    EDGES = {
        int: [-(2 ** 63) - 1, -1, 0, 1, 2, 2 ** 63, 2 ** 64],
        float: ["-inf", -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0 - 2 ** -53, 1.0, 1e300, "inf", "nan"],
        bool: ["true", "false", "2", ""],
        str: ["", "x", "single", "multi", "uniform", "learned"],
        "list": ["", ",", "x", "tri", "tri,tri", "A,B,D,E"],
    }

    def test_every_key_at_and_past_its_limits_ends_in_an_exit_code(self, workspace, capsys):
        from graphmem.cli import _CONFIG_TYPES

        rng = np.random.default_rng(20261019)
        (workspace / "one.sdf").write_text(molblock(["C", "O"], [(1, 2, 1)]), encoding="utf-8")
        for key, kind in _CONFIG_TYPES.items():
            values = list(self.EDGES[kind])
            if kind is int:
                values += rng.integers(-(2 ** 40), 2 ** 40, size=2).tolist()
                values = [v for v in values if v <= self.SMALL.get(key, v)]
            elif kind is float:
                values += rng.uniform(-2.0, 2.0, size=2).tolist()
            for value in values:
                if key in ("nbits", "radius"):
                    argv = ["fingerprint", "--input", workspace / "one.sdf"]
                else:
                    argv = ["train", "--config", workspace / "cfg", "--set", "max_epochs=1", "--quiet"]
                capsys.readouterr()
                try:
                    code = run(*argv, "--set", f"{key}={value}", "--out-dir", workspace / "out")
                except Exception as exc:  # a traceback, not an exit code
                    pytest.fail(f"{key}={value}: {exc!r}")
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4), (key, value, code)
                assert code == 0 or err.strip(), (key, value)


class TestCommandKeys:
    """Each command takes the config keys it reads and refuses every other,
    from any source, before it reads an input or makes its out dir."""

    # a value of each kind that parses, so that only the command refuses it
    VALUES = {int: "3", float: "0.5", bool: "true", str: "multi", "list": "tri"}
    # each command's required arguments, naming inputs that do not exist:
    # a command that read one would exit 3 or 5, not 2
    INPUTS = {"train": (), "eval": ("--checkpoint", "absent.bin"), "dump-attention": ("--checkpoint", "absent.bin"),
              "fingerprint": ("--input", "absent.sdf"), "gradcheck": (), "synth": ("--spec", "absent.synth")}

    def test_the_table(self):
        assert set(_COMMAND_KEYS) == set(self.INPUTS)
        assert all(set(keys) <= set(_CONFIG_TYPES) for keys in _COMMAND_KEYS.values())
        assert sum(len(keys) for keys in _COMMAND_KEYS.values()) == 25

    @pytest.mark.parametrize("command, key", [(command, key) for command in INPUTS for key in _CONFIG_TYPES])
    def test_every_command_and_key(self, tmp_path, capsys, command, key):
        import argparse

        from graphmem.cli import resolve_config

        setting = f"{key}={self.VALUES[_CONFIG_TYPES[key]]}"
        if key in _COMMAND_KEYS[command]:
            assert list(resolve_config(argparse.Namespace(command=command, set=[setting]))) == [key]
            return
        inputs = [tmp_path / part if part.startswith("absent") else part for part in self.INPUTS[command]]
        assert run(command, *inputs, "--set", setting, "--out-dir", tmp_path / "out") == 2
        assert f"unknown config key {key!r} for {command}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_source_is_refused(self, tmp_path, capsys):
        # the config file, --set and a flag that sets a key
        (tmp_path / "cfg").write_text("data_dir=.\nhops=3\n", encoding="utf-8")
        for argv, key in ((("eval", "--checkpoint", tmp_path / "absent.bin", "--config", tmp_path / "cfg"), "hops"),
                          (("gradcheck", "--set", "memory_size=8"), "memory_size"),
                          (("fingerprint", "--input", tmp_path / "absent.sdf", "--seed", "1"), "seed")):
            assert run(*argv, "--out-dir", tmp_path / "out") == 2, argv
            err = capsys.readouterr().err
            assert f"unknown config key {key!r} for {argv[0]}, which reads" in err, err
            assert not (tmp_path / "out").exists()


class TestBalanceFlag:
    def make_disk_task(self, root, labels):
        task_dir = root / "assay"
        task_dir.mkdir()
        records = "".join(molblock(["C"] * (k + 1), [], title=str(k)) + "$$$$\n"
                          for k in range(len(labels)))
        (task_dir / "molecules.sdf").write_text(records, encoding="utf-8")
        rows = "\n".join(f"{k},assay,{label}" for k, label in enumerate(labels))
        (task_dir / "labels.csv").write_text("id,task,label\n" + rows + "\n", encoding="utf-8")

    def test_majority_class_subsampled_and_seeded(self, tmp_path):
        from graphmem.cli import load_roster
        from graphmem.training import ExperimentConfig

        self.make_disk_task(tmp_path, [1, 1, 1, 1, 1, 0, 0])
        config = ExperimentConfig(tasks=("assay",), seed=3, max_epochs=1)
        resolved = {"data_dir": str(tmp_path), "balance": True}
        datasets, _, _ = load_roster(resolved, config)
        labels = [ex.label for ex in datasets["assay"]]
        assert sorted(labels) == [0, 0, 1, 1]
        again, _, _ = load_roster(resolved, config)
        assert [ex.example_id for ex in datasets["assay"]] == [ex.example_id for ex in again["assay"]]

    def test_without_flag_nothing_dropped(self, tmp_path):
        from graphmem.cli import load_roster
        from graphmem.training import ExperimentConfig

        self.make_disk_task(tmp_path, [1, 1, 1, 0])
        config = ExperimentConfig(tasks=("assay",), seed=3, max_epochs=1)
        datasets, _, _ = load_roster({"data_dir": str(tmp_path)}, config)
        assert len(datasets["assay"]) == 4

    def test_eval_pool_ignores_the_flag(self, tmp_path, capsys):
        # eval refuses the key, and its pool is never rebalanced
        from graphmem.cli import _eval_pool

        self.make_disk_task(tmp_path, [1, 1, 1, 1, 1, 0, 0])
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        assert run("eval", "--checkpoint", tmp_path / "checkpoint.bin", "--set", f"data_dir={tmp_path}",
                   "--set", "balance=1", "--out-dir", tmp_path / "e") == 2
        assert "unknown config key 'balance' for eval" in capsys.readouterr().err
        meta = {"tasks": ["assay"], "mode": "single", "seed": 3, "vocab": ["C"]}
        pool, _ = _eval_pool({"data_dir": str(tmp_path)}, meta)
        assert [ex.example_id for ex in pool] == [str(k) for k in range(7)]
        assert all(ex.graph.feature_width == node_feature_dim(["C"]) for ex in pool)


class TestEvalAndDump:
    @pytest.fixture()
    def trained(self, workspace):
        out = workspace / "run"
        assert run("train", "--config", workspace / "cfg", "--out-dir", out, "--quiet") == 0
        return out

    def test_eval_writes_metrics(self, workspace, trained):
        out = workspace / "eval"
        assert run("eval", "--checkpoint", trained / "checkpoint.bin",
                   "--set", f"data_dir={workspace}", "--out-dir", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"per_task", "micro_f1", "macro_f1", "average_auc"}

    def test_eval_garbage_checkpoint_is_exit_5(self, workspace, capsys):
        bad = workspace / "bad.bin"
        bad.write_bytes(b"not a checkpoint at all")
        assert run("eval", "--checkpoint", bad, "--out-dir", workspace / "e") == 5
        assert not (workspace / "e").exists()
        # dimensions of 0xFFFFFFFF: a read that large is refused, not attempted
        save_checkpoint(bad, {"w": np.zeros((1, 1, 1))}, {})
        body = bad.read_bytes()[:-DIGEST_SIZE]
        bad.write_bytes(resigned(body[:-20] + b"\xff" * 12 + body[-8:]))
        assert run("eval", "--checkpoint", bad, "--out-dir", workspace / "e") == 5
        assert "truncated" in capsys.readouterr().err

    def rewritten_checkpoint(self, trained, edit):
        """A copy of the trained checkpoint with ``edit`` applied to its arrays."""
        arrays, meta = load_checkpoint(trained / "checkpoint.bin")
        arrays = dict(arrays)
        edit(arrays)
        path = trained / "edited.bin"
        save_checkpoint(path, arrays, meta)
        return path

    def test_eval_nan_checkpoint_is_exit_4(self, workspace, trained, capsys):
        def poison(arrays):
            arrays["out.bias"] = np.full_like(arrays["out.bias"], np.nan)

        path = self.rewritten_checkpoint(trained, poison)
        code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}",
                   "--out-dir", workspace / "e")
        assert code == 4
        assert "not finite" in capsys.readouterr().err
        assert not (workspace / "e" / "metrics.json").exists()

    def test_dump_attention_nan_checkpoint_is_exit_4(self, workspace, trained, capsys):
        def poison(arrays):
            arrays["out.bias"] = np.full_like(arrays["out.bias"], np.nan)

        path = self.rewritten_checkpoint(trained, poison)
        out = workspace / "d"
        code = run("dump-attention", "--checkpoint", path, "--set", f"data_dir={workspace}", "--out-dir", out)
        assert code == 4
        assert "example '0': probability or attention is not finite" in capsys.readouterr().err
        # refused before the first pack's lines are written
        assert (out / "attention.jsonl").read_text() == ""
        assert not (out / "manifest.json").exists()

    def test_eval_checkpoint_parameter_mismatch_is_exit_5(self, workspace, trained, capsys):
        def drop_bias(arrays):
            del arrays["out.bias"]

        def misshape(arrays):
            arrays["mem.gated.self"] = arrays["mem.gated.self"][:, :-1]

        for edit, name in ((drop_bias, "out.bias"), (misshape, "mem.gated.self")):
            path = self.rewritten_checkpoint(trained, edit)
            code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}",
                       "--out-dir", workspace / "e")
            assert code == 5, name
            assert name in capsys.readouterr().err

    def test_checkpoint_listing_a_parameter_twice_is_exit_5(self, workspace, trained, capsys):
        arrays, meta = load_checkpoint(trained / "checkpoint.bin")
        path = trained / "twice.bin"
        path.write_bytes(checkpoint_bytes([*arrays.items(), ("out.bias", np.full_like(arrays["out.bias"], 123.0))],
                                          meta))
        for command in ("eval", "dump-attention"):
            code = run(command, "--checkpoint", path, "--set", f"data_dir={workspace}", "--out-dir", workspace / "e")
            assert code == 5, command
            assert "lists parameter out.bias twice" in capsys.readouterr().err
        assert not (workspace / "e").exists()

    def test_eval_checkpoint_with_trailing_bytes_is_exit_5(self, workspace, trained, capsys):
        path = trained / "padded.bin"
        path.write_bytes(resigned((trained / "checkpoint.bin").read_bytes()[:-DIGEST_SIZE] + b"garbage"))
        code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}",
                   "--out-dir", workspace / "e")
        assert code == 5
        assert "7 unexpected bytes" in capsys.readouterr().err

    def test_eval_checkpoint_with_repeated_vocab_is_exit_5(self, workspace, trained, capsys):
        arrays, meta = load_checkpoint(trained / "checkpoint.bin")
        path = trained / "repeats.bin"
        save_checkpoint(path, arrays, {**meta, "vocab": meta["vocab"] + meta["vocab"][:1]})
        code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}", "--out-dir", workspace / "e")
        assert code == 5
        assert "vocabulary lists " + meta["vocab"][0] in capsys.readouterr().err
        assert not (workspace / "e" / "metrics.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("tasks", None, "tasks must be a non-empty list"),
        ("tasks", [], "tasks must be a non-empty list"),
        ("tasks", ["tri", 3], "tasks must be a non-empty list"),
        ("mode", "pairs", "mode must be one of"),
        ("hops", "ten", "hops must be an integer >= 1"),
        ("hops", 0, "hops must be an integer >= 1"),
        ("hops", True, "hops must be an integer >= 1"),
        ("seed", None, "seed must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be an integer >= 0"),
        ("tasks", ["tri", "tri"], "tasks must be a non-empty list of distinct names"),
        ("query_dim", 2, "query width 2 does not fit single mode over 1 task"),
        ("memory_size", 0, "memory_size must be >= 1"),
        ("vocab", ["A", "B", "D"], "vocabulary of 3 symbols gives node features of width"),
        ("vocab", "ABDE", "vocab must be a list of element symbols"),
        ("vocab", [1, 2, 3, 4], "vocab must be a list of element symbols"),
        ("node_feat_dim", -1, "node_feat_dim must be >= 1"),
        ("memory_size", 32.0, "memory_size must be an integer, got 32.0"),
        ("n_relations", 3.0, "n_relations must be an integer, got 3.0"),
        ("raw_embedding", False, "unexpected keyword argument 'raw_embedding'"),
        # the relation count fixes the link width: a wider or narrower one is refused
        ("link_feat_dim", 6, "checkpoint metadata is unusable: link_feat_dim must be 3 (n_relations + 1), got 6"),
        ("link_feat_dim", 2, "checkpoint metadata is unusable: link_feat_dim must be 3 (n_relations + 1), got 2"),
        ("memory_size", MAX_WIDTH + 1, f"memory_size must be <= {MAX_WIDTH}, got {MAX_WIDTH + 1}"),
        ("controller_size", 2 ** 40, f"controller_size must be <= {MAX_WIDTH}"),
        ("hops", MAX_HOPS + 1, f"hops must be an integer >= 1 and <= {MAX_HOPS}, got {MAX_HOPS + 1}"),
    ])
    def test_eval_checkpoint_with_unusable_metadata_is_exit_5(self, workspace, trained, capsys,
                                                               field, value, message):
        # None removes the field; query_dim and memory_size are fields of the
        # model, and so was raw_embedding, which a model may no longer hold
        arrays, meta = load_checkpoint(trained / "checkpoint.bin")
        meta = {**meta, "model": dict(meta["model"])}
        target = meta["model"] if field in {*meta["model"], "raw_embedding"} else meta
        if value is None:
            del target[field]
        else:
            target[field] = value
        path = trained / "unusable.bin"
        save_checkpoint(path, arrays, meta)
        for command in ("eval", "dump-attention"):
            code = run(command, "--checkpoint", path, "--set", f"data_dir={workspace}", "--seed", "3",
                       "--out-dir", workspace / "e")
            assert code == 5, command
            err = capsys.readouterr().err
            assert "checkpoint" in err and message in err, err
        assert not (workspace / "e").exists()

    def test_data_that_does_not_fit_the_model_is_exit_3(self, workspace, trained, capsys):
        # the checkpoint was trained on tri.synth, whose graphs use 2 relations;
        # the SDF that synth writes from the same spec parses to all 4 bond types
        data = workspace / "disk"
        assert run("synth", "--spec", workspace / "tri.synth", "--out-dir", data / "tri") == 0
        for command in ("eval", "dump-attention"):
            capsys.readouterr()
            code = run(command, "--checkpoint", trained / "checkpoint.bin", "--set", f"data_dir={data}",
                       "--out-dir", workspace / "e")
            err = capsys.readouterr().err
            assert code == 3, command
            assert "relations" in err and "Traceback" not in err, err
        assert not (workspace / "e" / "metrics.json").exists()
        assert not (workspace / "e" / "manifest.json").exists()

    def test_eval_version_1_checkpoint_is_exit_5(self, workspace, trained, capsys):
        # and version 2, without the digest, and version 3, with a valid
        # digest and the R(R + 1) link columns version 4 narrowed to 2R
        blob = bytearray((trained / "checkpoint.bin").read_bytes())
        assert blob[4:8] == FORMAT_VERSION.to_bytes(4, "little") and FORMAT_VERSION == 4
        for version in (1, 2, 3):
            blob[4:8] = version.to_bytes(4, "little")
            path = trained / f"version{version}.bin"
            body = bytes(blob[:-DIGEST_SIZE])
            path.write_bytes(resigned(body) if version == 3 else body)
            code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}", "--out-dir", workspace / "e")
            assert code == 5
            assert f"format version {version} != supported 4" in capsys.readouterr().err
        assert not (workspace / "e" / "metrics.json").exists()

    def test_manifests_name_the_checkpoint(self, workspace, trained):
        # train records the digest of the checkpoint it wrote; eval and
        # dump-attention the path and digest of the checkpoint they read
        checkpoint = trained / "checkpoint.bin"
        digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        outputs = {"train": trained}
        for command in ("eval", "dump-attention"):
            outputs[command] = workspace / command
            assert run(command, "--checkpoint", checkpoint, "--set", f"data_dir={workspace}",
                       "--out-dir", outputs[command]) == 0
        for command, out in outputs.items():
            artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
            assert (artifacts["checkpoint"], artifacts["checkpoint_sha256"]) == (str(checkpoint), digest), command

    def test_manifests_record_only_the_keys_read(self, workspace, trained):
        # eval and dump-attention read data_dir and the seed of .synth tasks
        for command in ("eval", "dump-attention"):
            out = workspace / command
            assert run(command, "--checkpoint", trained / "checkpoint.bin", "--set", f"data_dir={workspace}",
                       "--seed", "3", "--out-dir", out) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config == {"data_dir": str(workspace), "seed": 3}, command

    def test_dump_attention_packs_match_one_at_a_time(self, workspace, trained, monkeypatch):
        # dump-attention packs in label-file order, eval in order of size:
        # the lines keep file order, and their probabilities are eval's scores
        import graphmem.cli as cli
        import graphmem.training as training
        from graphmem.model import forward
        from graphmem.training import build_queries, predict_scores, prepare_examples

        calls = []
        original = training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        out = workspace / "dump"
        assert run("dump-attention", "--checkpoint", trained / "checkpoint.bin",
                   "--set", f"data_dir={workspace}", "--out-dir", out) == 0
        records = [json.loads(line) for line in (out / "attention.jsonl").read_text().splitlines()]

        params, meta = cli._load_model(str(trained / "checkpoint.bin"))
        resolved = {"data_dir": str(workspace)}
        pool, _ = cli._eval_pool(resolved, meta)
        examples = prepare_examples(pool, params.config, build_queries(meta["mode"], len(meta["tasks"])))
        assert len(calls) < len(examples) == len(records) == 40  # packed: fewer forwards than examples
        assert [r["id"] for r in records] == [ex.example_id for ex in examples]
        ranked = sorted(range(len(examples)), key=lambda k: examples[k].prepared.n_nodes)
        assert ranked != list(range(len(examples)))  # the two commands pack differently
        scores = predict_scores(params, examples, meta["hops"])
        for record, ex, score in zip(records, examples, scores):
            assert abs(record["probability"] - score) <= 1e-12
            alone = forward(ex.prepared, ex.query, params.frozen(), meta["hops"])
            assert abs(record["probability"] - alone.probability.item()) <= 1e-12
            expected = alone.attention_trace()
            assert [len(w) for w in record["attention"]] == [len(w) for w in expected]
            np.testing.assert_allclose(np.concatenate(record["attention"]), np.concatenate(expected),
                                       rtol=0, atol=1e-12)

    def test_dump_attention_records(self, workspace, trained, monkeypatch):
        import graphmem.training as training

        original = training.forward
        results = []

        def recording_forward(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(training, "forward", recording_forward)
        out = workspace / "dump"
        assert run("dump-attention", "--checkpoint", trained / "checkpoint.bin",
                   "--set", f"data_dir={workspace}", "--out-dir", out) == 0
        # no backward follows, so no tape is recorded
        assert results and all(not r.probability._parents for r in results)
        lines = (out / "attention.jsonl").read_text().strip().splitlines()
        assert len(lines) == 40
        for line in lines[:5]:
            record = json.loads(line)
            assert set(record) == {"id", "attention", "probability"}
            assert len(record["attention"]) == 2  # one entry per hop
            for weights in record["attention"]:
                assert abs(sum(weights) - 1.0) <= 1e-9
            assert 0.0 <= record["probability"] <= 1.0


class TestRepeatedRecords:
    def test_featurized_and_prepared_once(self, tmp_path, monkeypatch):
        import graphmem.cli as cli
        import graphmem.training as training

        task_dir = tmp_path / "assay"
        task_dir.mkdir()
        (task_dir / "molecules.sdf").write_text(
            molblock(["C", "O"], [(1, 2, 1)], title="a") + "$$$$\n" + molblock(["N"], [], title="b") + "$$$$\n",
            encoding="utf-8")
        # record a by title, by index and by title again
        (task_dir / "labels.csv").write_text("id,task,label\na,assay,1\n0,assay,0\nb,assay,0\na,assay,1\n",
                                             encoding="utf-8")
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        featurized, passes, packed = [], [], []
        real_featurize_all, real_pack = cli.featurize_all, training.pack

        def counting_featurize_all(graphs, vocab):
            passes.append(len(graphs))
            featurized.extend(real_featurize_all(graphs, vocab))
            return featurized[len(featurized) - len(graphs):]

        def recording_pack(graphs, model_config):
            packed.extend(graphs)
            return real_pack(graphs, model_config)

        monkeypatch.setattr(cli, "featurize_all", counting_featurize_all)
        monkeypatch.setattr(training, "pack", recording_pack)
        assert run("eval", "--checkpoint", tmp_path / "checkpoint.bin", "--set", f"data_dir={tmp_path}",
                   "--out-dir", tmp_path / "eval") == 0
        assert [g.title for g in featurized] == ["a", "b"] and passes == [2]  # one pass over both records
        # the packs hold the featurized graphs themselves, one per label row,
        # smallest first: eval packs its examples in order of atom count
        assert [id(g) for g in packed] == [id(featurized[k]) for k in (1, 0, 0, 0)]

        featurized.clear()
        passes.clear()
        datasets, _, _ = cli.load_roster({"data_dir": str(tmp_path), "vocab": list(DEFAULT_VOCAB)},
                                         cli.experiment_config({"tasks": ["assay"]}))
        graphs = [ex.graph for ex in datasets["assay"]]
        assert len(featurized) == 2 and passes == [2]
        assert graphs[0] is graphs[1] is graphs[3] is featurized[0] and graphs[2] is featurized[1]


class TestSharedLibrary:
    """Tasks whose molecules.sdf files hold the same bytes share one parse
    and one featurized graph per molecule, and sharing changes no output."""

    MULTI = ("--set", "mode=multi", "--set", "tasks=a,b", "--set", "max_epochs=2")

    @staticmethod
    def two_tasks(root, spec_path, trailing=""):
        """Tasks a and b with the labels of one synth run; b's molecules.sdf
        gets ``trailing`` appended."""
        assert run("synth", "--spec", spec_path, "--seed", "4", "--out-dir", root / "a") == 0
        (root / "b").mkdir()
        for name in ("molecules.sdf", "labels.csv"):
            (root / "b" / name).write_bytes((root / "a" / name).read_bytes())
        with open(root / "b" / "molecules.sdf", "a", encoding="utf-8") as fh:
            fh.write(trailing)
        return root

    @staticmethod
    def counting(monkeypatch, name):
        import graphmem.cli as cli

        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args[0]) or real(*args))
        return calls

    def run_all(self, data, out):
        """train, then eval and dump-attention on its checkpoint."""
        assert run("train", "--config", data / "cfg", *self.MULTI, "--out-dir", out / "train", "--quiet") == 0
        for command in ("eval", "dump-attention"):
            assert run(command, "--checkpoint", out / "train" / "checkpoint.bin", "--set", f"data_dir={data}",
                       "--out-dir", out / command) == 0

    def test_shared_library_parsed_and_featurized_once(self, workspace, monkeypatch):
        data = self.two_tasks(workspace, workspace / "tri.synth")
        parsed = self.counting(monkeypatch, "parse_sdf")
        featurized = self.counting(monkeypatch, "featurize_all")
        self.run_all(data, workspace / "out")
        # once per command: train, eval, dump-attention; one pass over the 40 records
        assert len(parsed) == 3
        assert len(featurized) == 3
        assert all(len(graphs) == len({id(g) for g in graphs}) == 40 for graphs in featurized)

    def test_sharing_changes_no_output(self, tmp_path, monkeypatch):
        spec = tmp_path / "tri.synth"
        spec.write_text(SPEC_TEXT, encoding="utf-8")
        outputs = []
        for name, trailing, parses in (("shared", "", 1), ("apart", "\n", 2)):
            data = self.two_tasks(tmp_path / name, spec, trailing)
            (data / "cfg").write_text(CONFIG_TEXT + f"data_dir={data}\nvocab=A,B,D,E\n", encoding="utf-8")
            parsed = self.counting(monkeypatch, "parse_sdf")
            self.run_all(data, data / "out")
            assert len(parsed) == 3 * parses, name
            outputs.append({path: (data / "out" / path).read_bytes()
                            for path in ("train/metrics.json", "train/epochs.log", "train/checkpoint.bin",
                                         "eval/metrics.json", "dump-attention/attention.jsonl")})
            monkeypatch.undo()
        assert outputs[0] == outputs[1]


class TestLabelFile:
    """Label ids and label files that name no usable rows end in exit 3
    with a message, in every command that reads them."""

    @staticmethod
    def disk_task(root, labels, titles=("a", "b")):
        """Task ``assay`` under ``root``: one record per title and a label
        file of ``labels``, (id, label) rows."""
        task_dir = root / "assay"
        task_dir.mkdir()
        (task_dir / "molecules.sdf").write_text(
            "".join(molblock(["C", "O"], [(1, 2, 1)], title=title) + "$$$$\n" for title in titles), encoding="utf-8")
        rows = "".join(f"{row_id},assay,{label}\n" for row_id, label in labels)
        (task_dir / "labels.csv").write_text("id,task,label\n" + rows, encoding="utf-8")

    @pytest.mark.parametrize("row_id", ["--1", "\u00b2"])
    def test_id_that_is_no_index_and_no_title_is_data_error(self, tmp_path, capsys, row_id):
        # "\u00b2" (superscript two) is a digit to str.isdigit but no integer to int
        self.disk_task(tmp_path, [("0", 1), (row_id, 0)])
        code = run("train", "--set", "tasks=assay", "--set", f"data_dir={tmp_path}", "--set", "max_epochs=1",
                   "--quiet", "--out-dir", tmp_path / "out")
        assert code == 3
        assert f"label id {row_id!r} matches no record title" in capsys.readouterr().err

    def test_ids_resolve_by_index_and_by_title(self, tmp_path):
        from graphmem.cli import load_roster
        from graphmem.training import ExperimentConfig

        self.disk_task(tmp_path, [("\u00b2", 1), ("1", 0), ("-0", 1), ("a", 0)], titles=("a", "\u00b2"))
        datasets, _, _ = load_roster({"data_dir": str(tmp_path)}, ExperimentConfig(tasks=("assay",)))
        assert [ex.graph.title for ex in datasets["assay"]] == ["\u00b2", "\u00b2", "a", "a"]

    def test_header_only_label_file_is_data_error(self, tmp_path, capsys):
        self.disk_task(tmp_path, [])
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        commands = [("train", "--set", "tasks=assay", "--set", "max_epochs=1", "--quiet")]
        commands += [(command, "--checkpoint", tmp_path / "checkpoint.bin") for command in ("eval", "dump-attention")]
        for argv in commands:
            capsys.readouterr()
            out = tmp_path / f"out-{argv[0]}"
            assert run(*argv, "--set", f"data_dir={tmp_path}", "--out-dir", out) == 3, argv[0]
            err = capsys.readouterr().err
            assert "task 'assay'" in err and "has no labelled rows" in err, argv[0]
            assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("labels,message", [
        ("", "label file is empty"),
        ("id,name,label\n0,assay,1\n", "header must be 'id,task,label'"),
        ("id,task,label\n0,assay,2\n", "row 2: label must be 0 or 1"),
        ("id,task,label\n0,assay\n", "row 2 has 2 fields, expected 3"),
        # text the csv module refuses: a field over its limit and a NUL,
        # which Python 3.10 refuses itself and later versions read into a header that does not match
        pytest.param("id,task,label\n" + "m" * 200_000 + ",assay,1\n",
                     "label file line 2: field larger than field limit", id="oversized field"),
        pytest.param("id\0,task,label\n0,assay,1\n", "label file ", id="NUL in the header"),
    ])
    def test_label_file_error_names_the_task_and_the_file(self, tmp_path, capsys, labels, message):
        self.disk_task(tmp_path, [])
        labels_path = tmp_path / "assay" / "labels.csv"
        labels_path.write_text(labels, encoding="utf-8")
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        for argv in [("train", "--set", "tasks=assay", "--set", "max_epochs=1", "--quiet"),
                     ("eval", "--checkpoint", tmp_path / "checkpoint.bin")]:
            capsys.readouterr()
            assert run(*argv, "--set", f"data_dir={tmp_path}", "--out-dir", tmp_path / "out") == 3, argv[0]
            err = capsys.readouterr().err
            assert f"task 'assay': {labels_path}: " in err and message in err, (argv[0], err)
            assert not (tmp_path / "out").exists()

    def test_bare_cr_label_file_reads_as_lf(self, workspace):
        # a bare-CR copy of a synth task's labels.csv gives the same examples,
        # in order, and training on it the same metrics.json byte for byte
        from graphmem.cli import load_roster
        from graphmem.training import ExperimentConfig

        examples, metrics = [], []
        for name, line_end in (("lf", b"\n"), ("cr", b"\r")):
            data = workspace / name
            assert run("synth", "--spec", workspace / "tri.synth", "--out-dir", data / "tri") == 0
            labels = data / "tri" / "labels.csv"
            labels.write_bytes(labels.read_bytes().replace(b"\n", line_end))
            datasets, _, _ = load_roster({"data_dir": str(data)}, ExperimentConfig(tasks=("tri",)))
            examples.append([(ex.example_id, ex.label, ex.graph.title) for ex in datasets["tri"]])
            assert run("train", "--config", workspace / "cfg", "--set", f"data_dir={data}",
                       "--out-dir", data / "out", "--quiet") == 0
            metrics.append((data / "out" / "metrics.json").read_bytes())
        assert b"\n" not in (workspace / "cr" / "tri" / "labels.csv").read_bytes()
        assert len(examples[0]) == 40 and examples[0] == examples[1]
        assert metrics[0] == metrics[1]


class TestUnreadableText:
    """A data file or config file that is not UTF-8 text ends in its exit
    code with a message naming the file."""

    # per kind: the file that gets a 0xFF byte (in the title of the one
    # SDF record, or in a first comment line), the task train reads, and
    # the exit code
    KINDS = {
        "fingerprint input": ("disk/molecules.sdf", None, 3),
        "molecules.sdf": ("disk/molecules.sdf", "disk", 3),
        "labels.csv": ("disk/labels.csv", "disk", 3),
        "synth spec": ("tri.synth", "tri", 3),
        "config": ("cfg", "tri", 2),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_non_utf8_file_is_named(self, workspace, capsys, kind):
        name, task, code = self.KINDS[kind]
        (workspace / "disk").mkdir()
        (workspace / "disk" / "molecules.sdf").write_text(molblock(["C", "O"], [(1, 2, 1)], title="a") + "$$$$\n",
                                                          encoding="utf-8")
        (workspace / "disk" / "labels.csv").write_text("id,task,label\n0,disk,1\n", encoding="utf-8")
        target = workspace / name
        data = target.read_bytes()
        target.write_bytes(b"\xff" + data[1:] if name.endswith(".sdf") else b"#\xff\n" + data)
        if task is None:
            argv = ["fingerprint", "--input", target]
        else:
            argv = ["train", "--config", workspace / "cfg", "--set", f"tasks={task}", "--quiet"]
        capsys.readouterr()
        assert run(*argv, "--out-dir", workspace / "out") == code
        assert str(target) in capsys.readouterr().err


class TestKeyValueFiles:
    def test_a_line_without_equals_is_refused_by_config_and_spec_alike(self, workspace, capsys):
        # the config file and a .synth spec share one reader
        # (molgraph.parse_key_values); each refuses the same line with its
        # own exit code, naming the file and the line
        line = "  count 40"
        config, spec = workspace / "bad.cfg", workspace / "bad.synth"
        config.write_text(CONFIG_TEXT + line + "\n", encoding="utf-8")
        spec.write_text(SPEC_TEXT + line + "\n", encoding="utf-8")
        config_line, spec_line = CONFIG_TEXT.count("\n") + 1, SPEC_TEXT.count("\n") + 1
        for argv, code, where in (
            (["train", "--config", config, "--quiet"], 2, f"{config}:{config_line}"),
            (["train", "--config", workspace / "cfg", "--set", "tasks=bad", "--quiet"], 3, f"{spec}:{spec_line}"),
            (["synth", "--spec", spec], 3, f"{spec}:{spec_line}"),
        ):
            capsys.readouterr()
            assert run(*argv, "--out-dir", workspace / "out") == code, argv
            assert f"{where}: expected key=value, got {line!r}" in capsys.readouterr().err, argv


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a text file the CLI reads is
    dropped: each file gives the same outputs with and without it, and the
    manifest's checksums stay those of the bytes on disk."""

    # per kind: the file that gets the mark, the task train reads (None for
    # the fingerprint command) and the manifest entry holding its checksum
    KINDS = {
        "molecules.sdf": ("disk/molecules.sdf", "disk", ("disk", "molecules.sdf")),
        "labels.csv": ("disk/labels.csv", "disk", ("disk", "labels.csv")),
        "synth spec": ("tri.synth", "tri", ("tri", "tri.synth")),
        "config": ("cfg", "tri", None),
        "fingerprint input": ("disk/molecules.sdf", None, ("input", "molecules.sdf")),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_marked_file_gives_the_same_outputs(self, workspace, kind):
        name, task, checksum = self.KINDS[kind]
        disk = workspace / "disk"
        disk.mkdir()
        # labelled by title, so that a mark left in the first title finds no record
        (disk / "molecules.sdf").write_text(
            "".join(molblock(["C", "O", "N"], [(1, 2, 1), (2, 3, 1 + k % 2)], title=f"m{k}") + "$$$$\n"
                    for k in range(40)), encoding="utf-8")
        (disk / "labels.csv").write_text("id,task,label\n" + "".join(f"m{k},disk,{k % 2}\n" for k in range(40)),
                                         encoding="utf-8")
        target = workspace / name
        if task is None:
            argv, outputs = ["fingerprint", "--input", target], ["fingerprints.csv"]
        else:
            argv = ["train", "--config", workspace / "cfg", "--set", f"tasks={task}", "--set", "max_epochs=1",
                    "--quiet"]
            outputs = ["metrics.json", "checkpoint.bin"]
        manifests = []
        for out in (workspace / "plain", workspace / "marked"):
            if out.name == "marked":
                target.write_bytes(b"\xef\xbb\xbf" + target.read_bytes())
            assert run(*argv, "--out-dir", out) == 0, kind
            manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
        for output in outputs:
            assert (workspace / "plain" / output).read_bytes() == (workspace / "marked" / output).read_bytes(), output
        assert manifests[0]["config"] == manifests[1]["config"]
        if checksum is not None:
            group, entry = checksum
            assert manifests[1]["datasets"][group][entry] == hashlib.sha256(target.read_bytes()).hexdigest()
            assert manifests[1]["datasets"][group][entry] != manifests[0]["datasets"][group][entry]
        if task is None:
            assert (workspace / "marked" / "fingerprints.csv").read_text(encoding="utf-8").splitlines()[1][:3] == "m0,"


class TestAtomlessRecord:
    """A labelled record without atoms is refused where the examples are
    prepared, with the same exit and message in every command."""

    def test_atomless_record_is_data_error(self, tmp_path, capsys):
        task_dir = tmp_path / "assay"
        task_dir.mkdir()
        records = [molblock(["C", "O", "N"], [(1, 2, 1), (2, 3, 2)], title=f"m{k}") for k in range(12)]
        records.insert(5, molblock([], [], title="empty"))
        (task_dir / "molecules.sdf").write_text("".join(r + "$$$$\n" for r in records), encoding="utf-8")
        (task_dir / "labels.csv").write_text(
            "id,task,label\n" + "".join(f"{k},assay,{k % 2}\n" for k in range(len(records))), encoding="utf-8")
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        commands = [("train", "--set", "tasks=assay", "--set", "hops=1", "--set", "max_epochs=1", "--quiet")]
        commands += [(command, "--checkpoint", tmp_path / "checkpoint.bin") for command in ("eval", "dump-attention")]
        for argv in commands:
            capsys.readouterr()
            assert run(*argv, "--set", f"data_dir={tmp_path}", "--out-dir", tmp_path / "out") == 3, argv[0]
            assert "example '5' has no atoms" in capsys.readouterr().err, argv[0]


class TestSlotRange:
    """eval and dump-attention refuse a graph whose element slots do not fit
    the checkpoint's vocabulary with exit 3 naming the example, before any
    output is written."""

    @pytest.mark.parametrize("case", ["other vocabulary", "slot at the width"])
    def test_misslotted_graph_is_data_error(self, tmp_path, capsys, monkeypatch, case):
        import graphmem.cli as cli

        task_dir = tmp_path / "assay"
        task_dir.mkdir()
        records = [molblock(["C", "O", "N"], [(1, 2, 1), (2, 3, 2)], title=f"m{k}") for k in range(12)]
        (task_dir / "molecules.sdf").write_text("".join(r + "$$$$\n" for r in records), encoding="utf-8")
        (task_dir / "labels.csv").write_text(
            "id,task,label\n" + "".join(f"{k},assay,{k % 2}\n" for k in range(len(records))), encoding="utf-8")
        save_assay_checkpoint(tmp_path / "checkpoint.bin")
        real_featurize_all = cli.featurize_all

        def featurize_m5_wrongly(graphs, vocab):
            return [misslotted(graph, vocab, case) if graph.title == "m5" else graph
                    for graph in real_featurize_all(graphs, vocab)]

        monkeypatch.setattr(cli, "featurize_all", featurize_m5_wrongly)
        for command in ("eval", "dump-attention"):
            capsys.readouterr()
            code = run(command, "--checkpoint", tmp_path / "checkpoint.bin", "--set", f"data_dir={tmp_path}",
                       "--out-dir", tmp_path / "out")
            err = capsys.readouterr().err
            assert code == 3, command
            assert "example '5'" in err and "Traceback" not in err, err
        assert not any((tmp_path / "out" / name).exists() for name in ("metrics.json", "attention.jsonl"))


class TestFingerprintCommand:
    def test_one_atom_popcount_one(self, tmp_path):
        sdf = tmp_path / "one.sdf"
        sdf.write_text(molblock(["C"], [], title="m0") + "$$$$\n", encoding="utf-8")
        out = tmp_path / "fp"
        assert run("fingerprint", "--input", sdf, "--nbits", "16", "--radius", "0",
                   "--out-dir", out) == 0
        header, row = (out / "fingerprints.csv").read_text().strip().splitlines()
        assert header == "id,fingerprint"
        name, hexstring = row.split(",")
        assert name == "m0"
        assert len(hexstring) == 4
        assert bin(int(hexstring, 16)).count("1") == 1

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("fingerprint", "--input", tmp_path / "nope.sdf", "--out-dir", tmp_path) == 3

    def test_no_ring_flags_are_computed(self, tmp_path, monkeypatch):
        import graphmem.molgraph as molgraph_module

        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, 3, 12, 4, alphabet=("C", "N", "O")) for _ in range(12)]
        assert any(featurize(g, DEFAULT_VOCAB).ring.any() for g in graphs)
        sdf = tmp_path / "lib.sdf"
        sdf.write_text("".join(write_molfile(g, title=f"m{k}") + "$$$$\n" for k, g in enumerate(graphs)),
                       encoding="utf-8")
        assert run("fingerprint", "--input", sdf, "--radius", "3", "--out-dir", tmp_path / "a") == 0

        def no_search(graph):
            raise AssertionError("fingerprinting searched for ring bonds")

        monkeypatch.setattr(molgraph_module, "detect_ring_edges", no_search)
        assert run("fingerprint", "--input", sdf, "--radius", "3", "--out-dir", tmp_path / "b") == 0
        csv_a, csv_b = (tmp_path / out / "fingerprints.csv" for out in ("a", "b"))
        assert csv_b.read_bytes() == csv_a.read_bytes()

    def test_no_node_features_are_built(self, tmp_path, monkeypatch):
        import graphmem.model as model_module
        import graphmem.molgraph as molgraph_module

        from graphmem.fingerprint import circular_fingerprint, fingerprint_csv

        # an unknown element (the OTHER slot), a quoted title and a blank one
        text = (molblock(["C", "Xx", "N"], [(1, 2, 1), (2, 3, 2)], title='a, "b"') + "$$$$\n"
                + molblock(["O"], [], title="") + "$$$$\n")
        sdf = tmp_path / "lib.sdf"
        sdf.write_text(text, encoding="utf-8")
        expected = fingerprint_csv([(g.title or str(k), circular_fingerprint(featurize(g, DEFAULT_VOCAB)))
                                    for k, g in enumerate(parse_sdf(text))])

        def no_features(graphs):
            raise AssertionError("fingerprinting built one-hot node rows")

        # a featurized graph holds integer columns only; the one-hot rows are
        # built by packs alone, which fingerprinting never makes
        monkeypatch.setattr(molgraph_module, "atom_one_hot", no_features)
        monkeypatch.setattr(model_module, "atom_one_hot", no_features)
        assert run("fingerprint", "--input", sdf, "--out-dir", tmp_path) == 0
        assert (tmp_path / "fingerprints.csv").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("options", [("--nbits", "100"), ("--nbits", "1"), ("--radius", "-1"),
                                         ("--set", "nbits=100"), ("--set", "radius=-2"),
                                         ("--nbits", "131072"), ("--set", "nbits=4611686018427387904"),
                                         ("--set", "vocab=C,N,C"), ("--radius", "65"),
                                         ("--set", "radius=9223372036854775807")])
    def test_bad_options_are_config_errors(self, tmp_path, capsys, options):
        sdf = tmp_path / "one.sdf"
        sdf.write_text(molblock(["C"], [], title="m0") + "$$$$\n", encoding="utf-8")
        empty = tmp_path / "empty.sdf"
        empty.write_text("", encoding="utf-8")
        # checked before the input is read: a missing file is not reached
        for path in (sdf, empty, tmp_path / "nope.sdf"):
            out = tmp_path / "fp"
            assert run("fingerprint", "--input", path, *options, "--out-dir", out) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err
            assert "radius" not in " ".join(options) or "radius must be from 0 to 64" in err
            assert not (out / "fingerprints.csv").exists()

    def test_flags_win_over_set_and_the_config_file(self, tmp_path):
        sdf = tmp_path / "one.sdf"
        sdf.write_text(molblock(["C", "O"], [(1, 2, 1)], title="m0") + "$$$$\n", encoding="utf-8")
        (tmp_path / "cfg").write_text("nbits=64\nradius=2\n", encoding="utf-8")
        sources = ("--config", tmp_path / "cfg", "--set", "nbits=32", "--set", "radius=1")
        # a flag of 0 wins too
        for flags, nbits, radius in (((), 32, 1), (("--nbits", "16", "--radius", "0"), 16, 0)):
            out = tmp_path / f"fp{nbits}"
            assert run("fingerprint", "--input", sdf, *sources, *flags, "--out-dir", out) == 0
            _, row = (out / "fingerprints.csv").read_text().strip().splitlines()
            assert len(row.split(",")[1]) == nbits // 4
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["nbits"], config["radius"]) == (nbits, radius)

    def test_rows_across_chunk_boundaries_equal_the_oracle(self, tmp_path, monkeypatch):
        import graphmem.cli as cli

        # 40 molecules of 0-14 atoms, some untitled (their id is the record
        # index), hashed in runs of at most 25 atoms; the 30-atom molecule
        # exceeds that and runs alone
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, 1, 14, 4, alphabet=("C", "N", "O", "H")) for _ in range(38)]
        graphs.insert(17, random_graph(rng, 30, 30, 2, alphabet=("C", "S")))
        graphs.insert(5, parse_sdf(molblock([], [], title="none"))[0])
        records = [write_molfile(g, title=f"m{k}" if k % 3 else "") + "$$$$\n" for k, g in enumerate(graphs)]
        sdf = tmp_path / "lib.sdf"
        sdf.write_text("".join(records), encoding="utf-8")
        assert sum(g.n_nodes for g in graphs) > 10 * 25

        monkeypatch.setattr(cli, "FINGERPRINT_CHUNK_ATOMS", 25)
        hashed = []
        original = cli.circular_fingerprints

        def recording(chunk, **kwargs):
            hashed.append(sum(g.n_nodes for g in chunk))
            return original(chunk, **kwargs)

        monkeypatch.setattr(cli, "circular_fingerprints", recording)
        rounds = [atom_identifiers_oracle(featurize(g, DEFAULT_VOCAB), 2) for g in graphs]
        for nbits, width in ((2, 1), (4, 1), (16, 4)):
            hashed.clear()
            out = tmp_path / f"fp{nbits}"
            assert run("fingerprint", "--input", sdf, "--nbits", nbits, "--out-dir", out) == 0
            assert len(hashed) > 10 and max(hashed) == 30 and sorted(hashed)[-2] <= 25
            lines = (out / "fingerprints.csv").read_text().splitlines()
            expected = [f"{f'm{k}' if k % 3 else k},{hex_oracle(fold_oracle(r, nbits))}"
                        for k, r in enumerate(rounds)]
            assert lines == ["id,fingerprint"] + expected
            assert all(len(line.split(",")[1]) == width for line in lines[1:])


class TestSynthCommand:
    def test_synth_deterministic_outputs(self, tmp_path):
        spec = tmp_path / "s.synth"
        spec.write_text(SPEC_TEXT, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--spec", spec, "--seed", "1", "--out-dir", out_a) == 0
        assert run("synth", "--spec", spec, "--seed", "1", "--out-dir", out_b) == 0
        assert (out_a / "molecules.sdf").read_bytes() == (out_b / "molecules.sdf").read_bytes()
        assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()

    def test_synth_output_trains(self, tmp_path):
        spec = tmp_path / "disk.synth"
        spec.write_text(SPEC_TEXT, encoding="utf-8")
        task_dir = tmp_path / "disk"
        assert run("synth", "--spec", spec, "--seed", "2", "--out-dir", task_dir) == 0
        (tmp_path / "cfg").write_text(CONFIG_TEXT.replace("tasks=tri", "tasks=disk")
                                      + f"data_dir={tmp_path}\nvocab=A,B,D,E\n", encoding="utf-8")
        assert run("train", "--config", tmp_path / "cfg", "--out-dir", tmp_path / "run",
                   "--quiet") == 0

    def test_infeasible_spec_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.synth"
        spec.write_text("nodes_min=2\nnodes_max=2\nrelations=1\nmotif=triangle:1\nbalance=0.5\ncount=4\n",
                        encoding="utf-8")
        assert run("synth", "--spec", spec, "--out-dir", tmp_path / "o") == 3

    def test_molecules_past_the_v2000_counts_are_data_error(self, tmp_path, capsys):
        # a 1000-atom molecule would be written with a counts line that does
        # not read back; synth refuses it and writes no file
        spec = tmp_path / "big.synth"
        spec.write_text("nodes_min=1000\nnodes_max=1000\nrelations=2\nmotif=triangle:1\nbalance=0.5\ncount=2\n",
                        encoding="utf-8")
        assert run("synth", "--spec", spec, "--out-dir", tmp_path / "o") == 3
        assert "has 1000 atoms, but a V2000 record holds at most 999" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestShippedQuickstart:
    CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

    def test_quickstart_config_trains(self, tmp_path):
        code = run("train", "--config", self.CONFIGS / "quickstart.cfg",
                   "--set", f"data_dir={self.CONFIGS}", "--set", "max_epochs=2",
                   "--out-dir", tmp_path / "run", "--quiet")
        assert code == 0
        assert (tmp_path / "run" / "metrics.json").is_file()

    def test_flipped_sign_bit_is_exit_5(self, tmp_path, capsys):
        # the sign of out.weight[0, 0] flipped in a 2-epoch quickstart
        # checkpoint: a well-formed file whose weights would still score
        assert run("train", "--config", self.CONFIGS / "quickstart.cfg", "--set", f"data_dir={self.CONFIGS}",
                   "--set", "max_epochs=2", "--set", "dropout=0", "--out-dir", tmp_path / "run", "--quiet") == 0
        arrays, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        blob = bytearray((tmp_path / "run" / "checkpoint.bin").read_bytes())
        name = b"out.weight"
        at = blob.index(len(name).to_bytes(2, "little") + name) + 2 + len(name)
        at += 1 + 4 * blob[at]  # the rank byte and the dimensions
        assert np.frombuffer(bytes(blob[at:at + 8]), dtype="<f8")[0] == arrays["out.weight"][0, 0]
        blob[at + 7] ^= 0x80
        flipped = tmp_path / "flipped.bin"
        flipped.write_bytes(bytes(blob))
        code = run("eval", "--checkpoint", flipped, "--set", f"data_dir={self.CONFIGS}", "--out-dir", tmp_path / "e")
        assert code == 5
        assert f"{flipped} is corrupt" in capsys.readouterr().err
        assert not (tmp_path / "e" / "metrics.json").exists()


class TestGradcheckCommand:
    def test_passes_and_prints(self, tmp_path, capsys):
        assert run("gradcheck", "--seed", "7", "--graphs", "2", "--out-dir", tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "gradcheck"

    def test_neighbor_mode_reaches_the_check(self, tmp_path, monkeypatch):
        import graphmem.cli as cli_module
        from graphmem.gradcheck import GradcheckReport

        received = []

        def fake_check(**kwargs):
            received.append(kwargs)
            return GradcheckReport(max_relative_error=0.0, worst_parameter="", threshold=1e-4)

        monkeypatch.setattr(cli_module, "run_gradient_check", fake_check)
        for mode in ("learned", "uniform"):
            assert run("gradcheck", "--set", f"neighbor_mode={mode}", "--graphs", "1",
                       "--out-dir", tmp_path / mode) == 0
            manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
            assert received[-1]["neighbor_mode"] == manifest["config"]["neighbor_mode"] == mode
        assert run("gradcheck", "--graphs", "1", "--out-dir", tmp_path / "default") == 0
        assert received[-1]["neighbor_mode"] == "uniform"

    def test_negative_graphs_is_config_error(self, tmp_path, capsys):
        assert run("gradcheck", "--graphs", "-3", "--out-dir", tmp_path / "out") == 2
        assert "--graphs must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        from graphmem.gradcheck import run_gradient_check

        with pytest.raises(ValueError, match="graphs must be >= 0, got -1"):
            run_gradient_check(graphs=-1)


class TestParser:
    def test_two_calls_parse_with_one_parser(self, tmp_path, monkeypatch):
        import argparse

        parsers = []
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *args: parsers.append(self) or parse_args(self, *args))
        for name in ("a", "b"):
            assert run("synth", "--spec", tmp_path / f"{name}.synth", "--out-dir", tmp_path / name) == 3
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_a_parse_leaves_no_value_for_the_next(self, tmp_path, monkeypatch):
        import graphmem.cli as cli_module

        seen = []
        monkeypatch.setattr(cli_module, "cmd_synth", lambda args: seen.append(vars(args)) or 0)
        cli_module.build_parser.cache_clear()
        try:
            assert run("synth", "--spec", "a", "--set", "seed=1", "--out-dir", tmp_path) == 0
            assert run("synth", "--spec", "b") == 0
        finally:
            cli_module.build_parser.cache_clear()
        assert seen[0]["set"] == ["seed=1"] and seen[1]["set"] is None
        assert seen[1]["out_dir"] == "graphmem_out" and seen[1]["spec"] == "b"
