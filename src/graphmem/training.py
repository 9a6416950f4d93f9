"""Training: cross-entropy loss, adaptive optimization, single- and
multi-task loops with early stopping, and from-scratch evaluation metrics.

Single-task runs feed the controller a constant query; multi-task runs use
a one-hot task vector, so one parameter set serves every task and the
query alone routes the prediction.

Graphs are small and variable-sized, so they are never padded: each batch
runs as consecutive packs, disjoint unions of at most ``PACK_CELLS`` memory
cells (see :func:`graphmem.model.pack`). A pack is one forward, one loss
and one backward, and gradients accumulate over the packs of a batch
before one optimizer step. Inference packs to the same budget, and
:func:`predict_scores` packs its examples in order of size, so that a pack
holds molecules of one size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics as nm
from .model import (MAX_HOPS, NEIGHBOR_MODES, ForwardResult, ModelConfig, ModelParams, PreparedGraph, check_graph,
                    check_width, forward, pack)
from .molgraph import DatasetError, LabeledExample, MolecularGraph, link_feature_dim
from .numerics import Tensor

MODES = ("single", "multi")

# Memory cells per pack, in training and inference alike. Larger packs
# record fewer tape nodes per example and pay a hop's fixed cost less often,
# but a training pack's tape grows with its cells: per hop about 3 *
# memory_size + controller_size floats per cell, the gated update's output,
# proposal and gate and the attention's activated rows (numerics.linear_sum),
# and in learned mode 2 R more per cell, the summed link features
# (numerics.link_sum), and controller_size per directed edge, the edge
# scorer's activated rows. The neighbour sums, R * memory_size floats per
# cell, are made again in backward instead (numerics.Neighbours): the traced
# peak of one screen-sdf benchmark train call was 8.7 MiB at 256 cells
# keeping them, 16.3 at 512 keeping them and 10.0 at 512 making them again.
# Inference packs of 1024 cells raised its peak RSS past the bound.
PACK_CELLS = 512

# Adam's first- and second-moment decays and the floor added to the root of
# the second moment, the values of Kingma and Ba (2015)
ADAM_DECAYS = (0.9, 0.999)
ADAM_FLOOR = 1e-8


class ConfigError(ValueError):
    """An experiment configuration value is missing, unknown, or invalid."""


class NumericError(RuntimeError):
    """Training hit a non-finite value; the message names the culprit."""


@dataclass
class ExperimentConfig:
    """Everything a run needs beyond the data itself."""

    hops: int = 10
    memory_size: int = 32
    controller_size: int = 32
    dropout: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    tasks: tuple[str, ...] = ()
    mode: str = "single"
    neighbor_mode: str = "uniform"

    def __post_init__(self):
        if not 1 <= self.hops <= MAX_HOPS:
            raise ConfigError(f"hops must be >= 1 and <= {MAX_HOPS}, got {self.hops}")
        for name in ("memory_size", "controller_size"):
            try:
                check_width(name, getattr(self, name))
            except ValueError as error:
                raise ConfigError(str(error)) from None
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # a rate under which Adam cannot descend: refused here, not found
        # later as a NaN loss or as metrics of a run that ascended
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:  # numpy generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ConfigError(f"tasks must be distinct, got {','.join(self.tasks)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ConfigError(f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {self.neighbor_mode!r}")


# -- loss and optimizer -------------------------------------------------------


def cross_entropy(prob: Tensor, label) -> Tensor:
    """Elementwise binary cross-entropy of predicted probabilities against
    0/1 labels: one label, or one per probability in order.

    The probability is clamped to [1e-12, 1 - 1e-12] first, so the loss is
    finite for any input (see :func:`graphmem.numerics.binary_cross_entropy`).
    Batch losses are means of these.
    """
    y = np.broadcast_to(np.asarray(label, dtype=np.float64).reshape(-1), (prob.data.size,))
    return nm.binary_cross_entropy(prob, y.reshape(prob.shape))


@dataclass
class AdamState:
    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, arrays: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            first={name: np.zeros_like(a) for name, a in arrays.items()},
            second={name: np.zeros_like(a) for name, a in arrays.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, learning_rate: float) -> None:
    """One bias-corrected adaptive update at ``learning_rate``, in place,
    with the moment decays ``ADAM_DECAYS`` and the denominator floor
    ``ADAM_FLOOR``.

    A parameter missing from ``grads`` is treated as having zero gradient.
    Any non-finite gradient aborts with the parameter's name.
    """
    state.step += 1
    b1, b2 = ADAM_DECAYS
    correct1 = 1.0 - b1 ** state.step
    correct2 = 1.0 - b2 ** state.step
    for name, value in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {state.step}")
        m = state.first[name]
        v = state.second[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        value -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_FLOOR)


# -- metrics ------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-task and pooled scores; AUC entries are None for one-class tasks
    and those tasks are excluded from the average."""

    per_task_f1: dict[int, float]
    micro_f1: float
    macro_f1: float
    per_task_auc: dict[int, float | None]
    average_auc: float | None

    def to_dict(self) -> dict:
        return {
            "per_task": {
                str(tid): {"f1": self.per_task_f1[tid], "auc": self.per_task_auc[tid]}
                for tid in sorted(self.per_task_f1)
            },
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "average_auc": self.average_auc,
        }


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Probability a random positive outranks a random negative, ties 0.5.

    Computed from average ranks; None when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.size
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a tie group ending at 1-based sorted position ``last`` has mean rank
    # last - (count - 1) / 2, a half-integer and so exact
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(scores, labels, task_ids) -> MetricsReport:
    """Micro/macro F1 at threshold 0.5 (positive = probability >= 0.5) and
    per-task rank AUC. Zero-division conventions: a vanished denominator
    makes precision, recall, and F1 zero. A non-finite score raises
    :class:`NumericError` rather than produce metrics that look valid."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    task_ids = np.asarray(task_ids, dtype=np.int64)
    if scores.size == 0:
        raise ValueError("no examples to score")
    if not (scores.shape == labels.shape == task_ids.shape):
        raise ValueError(f"mismatched shapes {scores.shape}, {labels.shape}, {task_ids.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(f"{bad.size} of {scores.size} scores are not finite (first at index {bad[0]})")

    predictions = scores >= 0.5
    per_task_f1: dict[int, float] = {}
    per_task_auc: dict[int, float | None] = {}
    pooled_tp = pooled_fp = pooled_fn = 0
    for tid in sorted(set(int(t) for t in task_ids)):
        mask = task_ids == tid
        pred = predictions[mask]
        truth = labels[mask] == 1
        tp = int(np.sum(pred & truth))
        fp = int(np.sum(pred & ~truth))
        fn = int(np.sum(~pred & truth))
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn
        per_task_f1[tid] = _f1_from_counts(tp, fp, fn)
        auc = rank_auc(scores[mask], labels[mask])
        if auc is None:
            warnings.warn(f"task {tid} has a single class; AUC undefined and excluded from the average")
        per_task_auc[tid] = auc

    defined = [a for a in per_task_auc.values() if a is not None]
    return MetricsReport(
        per_task_f1=per_task_f1,
        micro_f1=_f1_from_counts(pooled_tp, pooled_fp, pooled_fn),
        macro_f1=float(np.mean(list(per_task_f1.values()))),
        per_task_auc=per_task_auc,
        average_auc=float(np.mean(defined)) if defined else None,
    )


# -- data plumbing ------------------------------------------------------------


@dataclass(eq=False)
class TaskSplit:
    train: list[LabeledExample]
    val: list[LabeledExample]
    test: list[LabeledExample]


def split_dataset(examples: Sequence[LabeledExample], seed: int) -> TaskSplit:
    """Seeded shuffle into 80/10/10 train/validation/test."""
    order = np.random.default_rng(seed).permutation(len(examples))
    shuffled = [examples[i] for i in order]
    n = len(shuffled)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return TaskSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )


def build_queries(mode: str, n_tasks: int) -> list[np.ndarray]:
    """Per-task query vectors: a constant scalar query in single mode, a
    one-hot task vector in multi mode."""
    if mode == "single":
        return [np.ones(1) for _ in range(n_tasks)]
    queries = []
    for k in range(n_tasks):
        q = np.zeros(n_tasks)
        q[k] = 1.0
        queries.append(q)
    return queries


@dataclass(eq=False)
class PreparedExample:
    """An example ready to run: ``prepared`` is its featurized graph, checked
    against the model; packs are built from these graphs run by run."""

    prepared: MolecularGraph
    query: np.ndarray
    label: int
    task_id: int
    example_id: str


def derive_model_config(examples: Sequence[LabeledExample], config: ExperimentConfig,
                        n_tasks: int) -> ModelConfig:
    """Infer tensor shapes from the featurized data plus the run settings.

    The node width is the first example's; :func:`prepare_examples` refuses
    any example whose width differs. The relations are the most any graph
    uses, and the link width is theirs."""
    if any(ex.graph.slot_width is None for ex in examples):
        raise DatasetError("examples must be featurized before training")
    n_relations = max(ex.graph.n_relations for ex in examples)
    return ModelConfig(
        node_feat_dim=examples[0].graph.feature_width,
        link_feat_dim=link_feature_dim(n_relations),
        n_relations=n_relations,
        query_dim=1 if config.mode == "single" else n_tasks,
        memory_size=config.memory_size,
        controller_size=config.controller_size,
        neighbor_mode=config.neighbor_mode,
    )


def prepare_examples(
    examples: Sequence[LabeledExample],
    model_config: ModelConfig,
    queries: Sequence[np.ndarray],
) -> list[PreparedExample]:
    """Attach the task query to each example, after checking that its task
    id picks one of ``queries``, that the model can run its graph (see
    :func:`graphmem.model.check_graph`) and that the graph has atoms to
    attend over, so that a bad example is refused before any forward; the
    packs built from the examples do not check them again. A refusal is a
    :class:`DatasetError` naming the example."""
    out = []
    for ex in examples:
        if not 0 <= ex.task_id < len(queries):
            raise DatasetError(f"example {ex.example_id!r} has task id {ex.task_id} outside the roster")
        try:
            check_graph(ex.graph, model_config)
        except ValueError as exc:
            raise DatasetError(f"example {ex.example_id!r}: {exc}") from None
        if ex.graph.n_nodes == 0:
            raise DatasetError(f"example {ex.example_id!r} has no atoms")
        out.append(PreparedExample(ex.graph, queries[ex.task_id], ex.label, ex.task_id, ex.example_id))
    return out


def budget_runs(sizes: Sequence[int], budget: int) -> Iterator[slice]:
    """Consecutive runs of items whose ``sizes`` add up to at most ``budget``;
    an item larger than the budget gets a run of its own."""
    start = total = 0
    for k, size in enumerate(sizes):
        if k > start and total + size > budget:
            yield slice(start, k)
            start, total = k, 0
        total += size
    if start < len(sizes):
        yield slice(start, len(sizes))


def _run_pack(examples: Sequence[PreparedExample], params: ModelParams, hops: int,
              **dropout) -> tuple[PreparedGraph, ForwardResult]:
    """The pack of a run of examples' graphs and its forward result."""
    prepared = pack([ex.prepared for ex in examples], params.config)
    return prepared, forward(prepared, np.stack([ex.query for ex in examples]), params, hops, **dropout)


def inference_packs(params: ModelParams, examples: Sequence[PreparedExample],
                    hops: int) -> Iterator[tuple[slice, PreparedGraph, ForwardResult]]:
    """Each ``PACK_CELLS`` run of ``examples`` in order, as its slice,
    its pack and its forward result (dropout off).

    Runs on :meth:`ModelParams.frozen`, so no tape is recorded and no
    parameter gains a gradient."""
    frozen = params.frozen()
    for part in budget_runs([ex.prepared.n_nodes for ex in examples], PACK_CELLS):
        yield (part, *_run_pack(examples[part], frozen, hops))


def predict_scores(params: ModelParams, examples: Sequence[PreparedExample], hops: int) -> np.ndarray:
    """Inference probabilities for a prepared example list, one per example
    in order.

    The examples are packed in order of atom count (a stable sort), so each
    pack holds like-sized graphs and pads its blocks little; each pack's
    probabilities are written back to its examples' positions (see
    :func:`inference_packs`)."""
    order = np.argsort([ex.prepared.n_nodes for ex in examples], kind="stable")
    ranked = [examples[k] for k in order]
    scores = np.zeros(len(examples))
    for part, _, result in inference_packs(params, ranked, hops):
        scores[order[part]] = result.probability.data.ravel()
    return scores


# -- the training loop ---------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_micro_f1: float
    val_macro_f1: float
    val_average_auc: float | None

    def format_line(self) -> str:
        auc = "n/a" if self.val_average_auc is None else f"{self.val_average_auc:.4f}"
        return (
            f"epoch {self.epoch:4d}  train_loss {self.train_loss:.6f}  "
            f"val_micro_f1 {self.val_micro_f1:.4f}  val_macro_f1 {self.val_macro_f1:.4f}  "
            f"val_avg_auc {auc}"
        )


@dataclass(eq=False)
class TrainResult:
    params: ModelParams
    model_config: ModelConfig
    task_names: list[str]
    metrics: MetricsReport
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_metric: float = float("-inf")


def _early_stop_metric(report: MetricsReport) -> float:
    # one-class validation slices leave AUC undefined; fall back to micro F1
    return report.micro_f1 if report.average_auc is None else report.average_auc


def train(
    tasks: dict[str, TaskSplit],
    config: ExperimentConfig,
    log_fn: Callable[[EpochRecord], None] | None = None,
) -> TrainResult:
    """Fit the memory network on one or many tasks.

    Examples from every task are pooled and reshuffled each epoch (so each
    task contributes exactly its dataset, without replacement), gradients
    are accumulated over the packs of each batch, and early stopping tracks
    validation average AUC with the configured patience. The returned
    parameters are the best validation checkpoint; metrics are computed on
    the test split with it.
    """
    if not tasks:
        raise DatasetError("no tasks to train on")
    task_names = list(tasks)
    for name, split in tasks.items():
        for part_name, part in (("train", split.train), ("val", split.val), ("test", split.test)):
            if not part:
                raise DatasetError(f"task {name!r} has an empty {part_name} split")

    all_examples = [ex for s in tasks.values() for part in (s.train, s.val, s.test) for ex in part]
    model_config = derive_model_config(all_examples, config, len(task_names))
    queries = build_queries(config.mode, len(task_names))
    train_pool = prepare_examples([ex for s in tasks.values() for ex in s.train], model_config, queries)
    val_pool = prepare_examples([ex for s in tasks.values() for ex in s.val], model_config, queries)
    test_pool = prepare_examples([ex for s in tasks.values() for ex in s.test], model_config, queries)

    params = ModelParams.initialize(model_config, config.seed)
    adam = AdamState.for_params(params.arrays())
    result = TrainResult(params=params, model_config=model_config, task_names=task_names,
                         metrics=None)  # type: ignore[arg-type]
    best_arrays = params.copy_arrays()
    stall = 0

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng((config.seed, 7919, epoch)).permutation(len(train_pool))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            examples = [train_pool[idx] for idx in batch]
            params.zero_grads()
            for part in budget_runs([ex.prepared.n_nodes for ex in examples], PACK_CELLS):
                # each example draws its dropout masks from its own generator;
                # without dropout nothing draws, so none is made
                rngs = ([np.random.default_rng((config.seed, epoch, int(idx))) for idx in batch[part]]
                        if config.dropout > 0.0 else None)
                # the pack goes with its tape; its hop states stay until the next result replaces
                # them, since freeing them as well gave the freed heap top back to the system after
                # every pack, and the next pack faulted it in again
                forwarded = _run_pack(examples[part], params, config.hops,
                                      dropout_rate=config.dropout, rng=rngs, training=True)[1]
                loss = cross_entropy(forwarded.probability, [ex.label for ex in examples[part]])
                for value in loss.data.ravel().tolist():
                    if not np.isfinite(value):
                        raise NumericError(f"non-finite training loss {value!r}")
                    loss_sum += value
                loss.backward(seed=1.0 / len(batch))
            adam_step(params.arrays(), params.grads(), adam, config.learning_rate)

        val_scores = predict_scores(params, val_pool, config.hops)
        val_report = compute_metrics(val_scores, [ex.label for ex in val_pool],
                                     [ex.task_id for ex in val_pool])
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / len(train_pool),
            val_micro_f1=val_report.micro_f1,
            val_macro_f1=val_report.macro_f1,
            val_average_auc=val_report.average_auc,
        )
        result.history.append(record)
        if log_fn is not None:
            log_fn(record)

        metric = _early_stop_metric(val_report)
        if metric > result.best_val_metric:
            result.best_val_metric = metric
            result.best_epoch = epoch
            best_arrays = params.copy_arrays()
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    params.load_arrays(best_arrays)
    test_scores = predict_scores(params, test_pool, config.hops)
    result.metrics = compute_metrics(test_scores, [ex.label for ex in test_pool],
                                     [ex.task_id for ex in test_pool])
    return result
