"""End-to-end command behavior, exit codes, and manifest reproducibility."""

import json

import numpy as np
import pytest

from graphmem.checkpoint import load_checkpoint, save_checkpoint
from graphmem.cli import main

from test_molgraph import molblock

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

    def test_no_tasks_is_config_error(self, tmp_path):
        (tmp_path / "cfg").write_text("mode=single\n", encoding="utf-8")
        assert run("train", "--config", tmp_path / "cfg", "--out-dir", tmp_path / "x") == 2

    def test_multi_mode_single_task_runs(self, workspace):
        out = workspace / "multi1"
        assert run("train", "--config", workspace / "cfg", "--mode", "multi",
                   "--out-dir", out, "--quiet") == 0
        assert (out / "metrics.json").is_file()

    def test_seed_flag_overrides_config(self, workspace):
        out = workspace / "seeded"
        assert run("train", "--config", workspace / "cfg", "--seed", "42",
                   "--out-dir", out, "--quiet") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42


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

    def test_eval_checkpoint_parameter_mismatch_is_exit_5(self, workspace, trained, capsys):
        def drop_bias(arrays):
            del arrays["out.bias"]

        def misshape(arrays):
            arrays["mem.self"] = arrays["mem.self"][:, :-1]

        for edit, name in ((drop_bias, "out.bias"), (misshape, "mem.self")):
            path = self.rewritten_checkpoint(trained, edit)
            code = run("eval", "--checkpoint", path, "--set", f"data_dir={workspace}",
                       "--out-dir", workspace / "e")
            assert code == 5, name
            assert name in capsys.readouterr().err

    def test_dump_attention_records(self, workspace, trained):
        out = workspace / "dump"
        assert run("dump-attention", "--checkpoint", trained / "checkpoint.bin",
                   "--set", f"data_dir={workspace}", "--out-dir", out) == 0
        lines = (out / "attention.jsonl").read_text().strip().splitlines()
        assert len(lines) == 40
        for line in lines[:5]:
            record = json.loads(line)
            assert set(record) == {"id", "attention", "probability"}
            assert len(record["attention"]) == 2  # one entry per hop
            for weights in record["attention"]:
                assert abs(sum(weights) - 1.0) <= 1e-9
            assert 0.0 <= record["probability"] <= 1.0


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


class TestShippedQuickstart:
    def test_quickstart_config_trains(self, tmp_path):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parent.parent
        code = run("train", "--config", repo / "configs" / "quickstart.cfg",
                   "--set", f"data_dir={repo / 'configs'}", "--set", "max_epochs=2",
                   "--out-dir", tmp_path / "run", "--quiet")
        assert code == 0
        assert (tmp_path / "run" / "metrics.json").is_file()


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
