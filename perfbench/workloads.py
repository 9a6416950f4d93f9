"""Benchmark workloads: their inputs, the three timed operations, and the
checks on what those operations produce.

Every workload is one user session over one molecule library:

* ``train``: one ``training.train`` call for a fixed number of epochs
  (patience is larger than the epoch count, so it never stops early);
* ``eval``: ``graphmem eval`` of a checkpoint over the library on disk;
* ``fingerprint``: ``graphmem fingerprint`` of the library's SDF file.

Every end-to-end metric is reported on every workload, so all three
operations run on each. The workloads differ in molecules and model, and
their sizes put most of a repeat's time into the operation the workload
exists for. The reasons are in ``perfbench/README.md``.

The checks compare each output with a value computed without the CLI
from the molecules set-up held in memory, and compare one small fixed-seed
run of each workload with the reference outputs in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphmem import checkpoint, cli, fingerprint, model, molgraph, training

MEMORY_SIZE = 32
CONTROLLER_SIZE = 32
BATCH_SIZE = 32
# Parameter initialisation, batch order and dropout draw from this seed, not
# from the workload seed: the loss after a few epochs is still mostly the
# loss of the initial parameters, and the workload seed should vary only the
# molecules.
MODEL_SEED = 0

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
REFERENCE_MOLECULES = 24  # train and library molecules of the reference run
# Float outputs may differ from the reference by rounding only: a change in
# summation order moves a score or loss by far less than this.
REFERENCE_REL_TOL = 1e-6
FORWARD_CHECKS = 4  # eval examples whose score is recomputed on the training path


@dataclass(frozen=True)
class Workload:
    name: str
    train_molecules: int      # leading generated molecules the train operation uses
    library_molecules: int    # leading generated molecules written to the SDF library
    nodes: tuple[int, int]    # atoms per molecule, inclusive
    relations: int            # bond relations the generator draws from
    task_relations: tuple[int, ...]  # one task per relation: "contains a triangle of it"
    hops: int
    neighbor_mode: str
    dropout: float
    epochs: int
    fingerprint_calls: int    # per repeat, so that fingerprinting gets a fair share of the run
    elements: dict[str, str] | None  # symbols written in place of the synthetic alphabet


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-uniform-h10", train_molecules=108, library_molecules=108, nodes=(8, 16),
                 relations=3, task_relations=(2,), hops=10, neighbor_mode="uniform",
                 dropout=0.1, epochs=2, fingerprint_calls=3, elements=None),
        Workload("train-learned-multi-h4", train_molecules=27, library_molecules=54, nodes=(8, 16),
                 relations=3, task_relations=(1, 2, 3), hops=4, neighbor_mode="learned",
                 dropout=0.0, epochs=1, fingerprint_calls=5, elements=None),
        Workload("screen-sdf", train_molecules=84, library_molecules=210, nodes=(20, 40),
                 relations=4, task_relations=(2,), hops=10, neighbor_mode="uniform",
                 dropout=0.1, epochs=1, fingerprint_calls=1,
                 elements={"A": "C", "B": "N", "D": "O", "E": "S"}),
    )
}


@dataclass(eq=False)
class Fixture:
    """What set-up leaves for the timed operations and the checks."""

    splits: dict[str, training.TaskSplit]
    train_config: training.ExperimentConfig
    train_examples: int        # per epoch, over all tasks
    params: model.ModelParams  # the parameters saved in the checkpoint
    meta: dict                 # the checkpoint metadata
    sdf_path: Path
    data_dir: Path
    out_dir: Path
    checkpoint_path: Path
    vocab: list[str]
    eval_graphs: int           # examples one eval scores, over all tasks
    library_molecules: int
    negatives_kept: int        # negatives generate_synthetic returned
    library: list[molgraph.MolecularGraph]  # the molecules written to the SDF library
    labels: list[list[int]]    # per task, per library molecule


def make_molecules(w: Workload, seed: int) -> tuple[list[molgraph.MolecularGraph], int]:
    """The workload's molecules, generated from ``seed``, and how many
    negatives generate_synthetic kept.

    There is one generate_synthetic call per cell (atom count, task
    relation), half of each cell with a planted triangle of its relation.
    Every seed therefore gets the same mix of molecule sizes, which keeps
    per-molecule cost from varying with the seed. Cells are interleaved so
    that every leading slice of one molecule per cell has that mix too.
    """
    count = max(w.train_molecules, w.library_molecules)
    sizes = range(w.nodes[0], w.nodes[1] + 1)
    per_cell = -(-count // (len(sizes) * len(w.task_relations)))
    cells = []
    negatives = 0
    for size in sizes:
        for relation in w.task_relations:
            spec = molgraph.SyntheticSpec(nodes_min=size, nodes_max=size, relations=w.relations,
                                          motif=f"triangle:{relation}", balance=0.5,
                                          count=per_cell)
            examples = molgraph.generate_synthetic(spec, seed * 1_000_000 + size * 100 + relation)
            cells.append([ex.graph for ex in examples])
            negatives += sum(ex.label == 0 for ex in examples)
    graphs = [cell[i] for i in range(per_cell) for cell in cells][:count]
    if w.elements is not None:
        graphs = [
            molgraph.MolecularGraph.from_bonds([w.elements[node.symbol] for node in g.nodes],
                                               [(e.i, e.j, e.relation) for e in g.edges],
                                               g.n_relations)
            for g in graphs
        ]
    return graphs, negatives


def set_up(w: Workload, seed: int, work_dir: Path) -> Fixture:
    """Generate the library, featurize the training molecules, write the SDF
    library with one label file per task, and save a freshly initialised
    checkpoint that fits the library as ``graphmem eval`` parses it."""
    graphs, negatives = make_molecules(w, seed)
    vocab = list(molgraph.DEFAULT_VOCAB if w.elements else molgraph.SYNTHETIC_ALPHABET)
    tasks = [f"triangle{relation}" for relation in w.task_relations]
    mode = "single" if len(tasks) == 1 else "multi"
    labels = [[int(molgraph.contains_motif(g, "triangle", relation)) for g in graphs]
              for relation in w.task_relations]

    # one featurized graph object per molecule, shared by every task
    featurized = [molgraph.featurize(g, vocab) for g in graphs[: w.train_molecules]]
    splits = {
        name: training.split_dataset(
            [molgraph.LabeledExample(graph=g, task_id=task_id, label=labels[task_id][i],
                                     example_id=str(i))
             for i, g in enumerate(featurized)],
            seed,
        )
        for task_id, name in enumerate(tasks)
    }
    train_config = training.ExperimentConfig(
        hops=w.hops, memory_size=MEMORY_SIZE, controller_size=CONTROLLER_SIZE,
        dropout=w.dropout, batch_size=BATCH_SIZE, max_epochs=w.epochs, patience=w.epochs + 1,
        seed=MODEL_SEED, tasks=tuple(tasks), mode=mode, neighbor_mode=w.neighbor_mode,
    )

    data_dir = work_dir / "data"
    # the graphs as graphmem eval should parse them back: four bond relations
    library = [
        molgraph.MolecularGraph.from_bonds([node.symbol for node in g.nodes],
                                           [(e.i, e.j, e.relation) for e in g.edges],
                                           molgraph.N_BOND_TYPES, title=f"mol{i}")
        for i, g in enumerate(graphs[: w.library_molecules])
    ]
    sdf_text = molgraph.write_sdf(library)
    for task_id, name in enumerate(tasks):
        task_dir = data_dir / name
        task_dir.mkdir(parents=True)
        (task_dir / "molecules.sdf").write_text(sdf_text, encoding="utf-8")
        rows = "".join(f"{i},{name},{label}\n"
                       for i, label in enumerate(labels[task_id][: len(library)]))
        (task_dir / "labels.csv").write_text("id,task,label\n" + rows, encoding="utf-8")

    # SDF parsing always yields the four bond-type relations
    model_config = model.ModelConfig(
        node_feat_dim=molgraph.node_feature_dim(vocab),
        link_feat_dim=molgraph.link_feature_dim(molgraph.N_BOND_TYPES),
        n_relations=molgraph.N_BOND_TYPES,
        query_dim=1 if mode == "single" else len(tasks),
        memory_size=MEMORY_SIZE, controller_size=CONTROLLER_SIZE,
        neighbor_mode=w.neighbor_mode,
    )
    params = model.ModelParams.initialize(model_config, MODEL_SEED)
    meta = {"model": model_config.to_dict(), "tasks": tasks, "mode": mode, "hops": w.hops,
            "vocab": vocab, "seed": MODEL_SEED}
    checkpoint_path = work_dir / "checkpoint.bin"
    checkpoint.save_checkpoint(checkpoint_path, params.arrays(), meta)

    return Fixture(
        splits=splits, train_config=train_config,
        train_examples=sum(len(s.train) for s in splits.values()),
        params=params, meta=meta, sdf_path=data_dir / tasks[0] / "molecules.sdf",
        data_dir=data_dir, out_dir=work_dir / "out", checkpoint_path=checkpoint_path,
        vocab=vocab, eval_graphs=len(tasks) * len(library), library_molecules=len(library),
        negatives_kept=negatives, library=library,
        labels=[task_labels[: len(library)] for task_labels in labels],
    )


# -- the timed operations -------------------------------------------------------


@dataclass(eq=False)
class TrainRun:
    seconds: float
    summary: dict  # everything the run's outcome is judged by


def run_train(fx: Fixture) -> TrainRun:
    records: list[training.EpochRecord] = []
    start = time.perf_counter()
    result = training.train(fx.splits, fx.train_config, log_fn=records.append)
    seconds = time.perf_counter() - start
    summary = {
        "epoch_losses": [r.train_loss for r in records],
        "best_epoch": result.best_epoch,
        "test_metrics": result.metrics.to_dict(),
    }
    return TrainRun(seconds, summary)


def _run_cli(argv: list[str], output: Path) -> tuple[float, int, str | None]:
    """Time one in-process CLI call; return (seconds, exit code, output text)."""
    output.unlink(missing_ok=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    text = output.read_text(encoding="utf-8") if output.is_file() else None
    return seconds, code, text


def run_eval(fx: Fixture) -> tuple[float, int, str | None]:
    out = fx.out_dir / "eval"
    argv = ["eval", "--checkpoint", str(fx.checkpoint_path), "--data-dir", str(fx.data_dir),
            "--out-dir", str(out)]
    return _run_cli(argv, out / "metrics.json")


def run_fingerprint(fx: Fixture) -> tuple[float, int, str | None]:
    out = fx.out_dir / "fingerprint"
    argv = ["fingerprint", "--input", str(fx.sdf_path), "--out-dir", str(out),
            "--set", "vocab=" + ",".join(fx.vocab)]
    return _run_cli(argv, out / "fingerprints.csv")


# -- output checks (never timed) ----------------------------------------------


class CheckError(Exception):
    """An output disagrees with the value it is checked against."""


def train_ok(summary: dict, reference: dict) -> bool:
    """Every epoch loss is finite and the run repeats the reference exactly."""
    return all(math.isfinite(x) for x in summary["epoch_losses"]) and summary == reference


def library_scores(fx: Fixture) -> tuple[list[training.PreparedExample], np.ndarray]:
    """The library's examples, task by task as graphmem eval orders them,
    scored from the molecules and parameters held in memory. The SDF file,
    the label files and the checkpoint are not read."""
    featurized = [molgraph.featurize(g, fx.vocab) for g in fx.library]
    examples = [molgraph.LabeledExample(graph, task_id, fx.labels[task_id][i], str(i))
                for task_id in range(len(fx.meta["tasks"]))
                for i, graph in enumerate(featurized)]
    queries = training.build_queries(fx.meta["mode"], len(fx.meta["tasks"]))
    prepared = training.prepare_examples(examples, fx.params.config, queries)
    return prepared, training.predict_scores(fx.params, prepared, fx.meta["hops"])


def expected_eval_metrics(fx: Fixture) -> dict:
    """metrics.json recomputed from the in-memory library. The first
    FORWARD_CHECKS scores must also match a training-path forward (dropout
    0), so that a separate inference path cannot drift from training."""
    prepared, scores = library_scores(fx)
    for ex, score in zip(prepared[:FORWARD_CHECKS], scores):
        out = model.forward(ex.prepared, ex.query, fx.params, fx.meta["hops"], dropout_rate=0.0,
                            rng=np.random.default_rng(0), training=True)
        if not math.isclose(out.probability.item(), score, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"example {ex.example_id}: inference score {score!r} but "
                             f"training-path forward {out.probability.item()!r}")
    report = training.compute_metrics(scores, [ex.label for ex in prepared],
                                      [ex.task_id for ex in prepared])
    return json.loads(json.dumps(report.to_dict()))


def expected_fingerprints(fx: Fixture) -> str:
    """fingerprints.csv recomputed from the in-memory library."""
    rows = [(g.title, fingerprint.circular_fingerprint(molgraph.featurize(g, fx.vocab)))
            for g in fx.library]
    return fingerprint.fingerprint_csv(rows)


def reference_outputs(w: Workload, work_dir: Path) -> dict:
    """The outputs of a small run of ``w`` at REFERENCE_SEED: one train call
    (one epoch), graphmem eval and its in-memory scores, and the digest of
    graphmem fingerprint's output."""
    small = dataclasses.replace(w, train_molecules=min(w.train_molecules, REFERENCE_MOLECULES),
                                library_molecules=min(w.library_molecules, REFERENCE_MOLECULES),
                                epochs=1)
    fx = set_up(small, REFERENCE_SEED, work_dir)
    with warnings.catch_warnings():
        # the small test splits can hold one class, for which AUC is undefined
        warnings.simplefilter("ignore", UserWarning)
        train = run_train(fx).summary
    _, eval_code, metrics_text = run_eval(fx)
    _, fingerprint_code, csv_text = run_fingerprint(fx)
    if eval_code != 0 or fingerprint_code != 0 or metrics_text is None or csv_text is None:
        raise CheckError(f"reference run: eval exit {eval_code}, fingerprint exit {fingerprint_code}")
    return {
        "train": train,
        "eval_metrics": json.loads(metrics_text),
        "eval_scores": library_scores(fx)[1].tolist(),
        "fingerprints_sha256": hashlib.sha256(csv_text.encode("utf-8")).hexdigest(),
    }


def differences(actual, expected, path: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``: floats beyond
    REFERENCE_REL_TOL, anything else when unequal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for key in expected for d in differences(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for k, (a, e) in enumerate(zip(actual, expected))
                for d in differences(a, e, f"{path}[{k}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-12):
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]
