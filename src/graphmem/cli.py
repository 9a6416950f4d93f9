"""Command-line entry point.

Commands: ``train``, ``eval``, ``fingerprint``, ``gradcheck``,
``dump-attention``, ``synth``. Configuration is a flat ``key=value`` file;
command-line flags win over file values. Every successful run writes a
manifest with the resolved configuration, seeds, dataset checksums, and
artifact paths, sufficient to reproduce the run bit-identically.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
abort, 5 checkpoint/format mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .fingerprint import DEFAULT_NBITS, DEFAULT_RADIUS, circular_fingerprint, fingerprint_csv
from .gradcheck import run_gradient_check
from .model import ModelConfig, ModelParams, forward
from .molgraph import (
    DEFAULT_VOCAB,
    SYNTHETIC_ALPHABET,
    DatasetError,
    LabeledExample,
    MolfileError,
    SyntheticSpecError,
    featurize,
    generate_synthetic,
    parse_sdf,
    parse_synthetic_spec,
    read_labels_csv,
    write_sdf,
)
from .training import (
    ConfigError,
    ExperimentConfig,
    NumericError,
    TaskSplit,
    build_queries,
    compute_metrics,
    predict_scores,
    prepare_examples,
    split_dataset,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CHECKPOINT = 5

_CONFIG_TYPES = {
    "hops": int,
    "memory_size": int,
    "controller_size": int,
    "dropout": float,
    "learning_rate": float,
    "beta1": float,
    "beta2": float,
    "epsilon": float,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "mode": str,
    "neighbor_mode": str,
    "raw_embedding": bool,
    "tasks": "list",
    "vocab": "list",
    "data_dir": str,
    "nbits": int,
    "radius": int,
    "balance": bool,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def read_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge the config file with command-line overrides (flags win)."""
    raw = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in raw:
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value

    resolved: dict = {}
    for key, value in raw.items():
        kind = _CONFIG_TYPES[key]
        try:
            if kind == "list":
                resolved[key] = [part.strip() for part in value.split(",") if part.strip()]
            elif kind is bool:
                resolved[key] = _parse_bool(value)
            else:
                resolved[key] = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {getattr(kind, '__name__', kind)}") from None

    if getattr(args, "seed", None) is not None:
        resolved["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        resolved["mode"] = args.mode
    if getattr(args, "data_dir", None) is not None:
        resolved["data_dir"] = args.data_dir
    if getattr(args, "task", None):
        resolved["tasks"] = list(args.task)
    if getattr(args, "balance", False):
        resolved["balance"] = True
    return resolved


def experiment_config(resolved: dict) -> ExperimentConfig:
    fields = {k: v for k, v in resolved.items() if k in ExperimentConfig.__dataclass_fields__}
    if "tasks" in fields:
        fields["tasks"] = tuple(fields["tasks"])
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# -- dataset resolution ---------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _task_seed(seed: int, name: str) -> int:
    return (seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % (2**63)


def resolve_task(data_dir: Path, name: str, seed: int) -> tuple[list[LabeledExample], dict, bool]:
    """Load one task by name: a directory of molecules.sdf + labels.csv, or
    a ``<name>.synth`` spec regenerated deterministically from the run seed.
    Returns (examples, checksums, is_synthetic)."""
    task_dir = data_dir / name
    spec_path = data_dir / f"{name}.synth"
    if task_dir.is_dir():
        sdf_path = task_dir / "molecules.sdf"
        labels_path = task_dir / "labels.csv"
        for required in (sdf_path, labels_path):
            if not required.is_file():
                raise DatasetError(f"task {name!r}: missing {required}")
        graphs = parse_sdf(sdf_path.read_text(encoding="utf-8"))
        rows = read_labels_csv(labels_path.read_text(encoding="utf-8"))
        by_title = {}
        for g in graphs:
            by_title.setdefault(g.title, g)
        examples = []
        for row_id, _task, label in rows:
            graph = None
            if row_id.lstrip("-").isdigit():
                index = int(row_id)
                if not (0 <= index < len(graphs)):
                    raise DatasetError(f"task {name!r}: label id {row_id} outside 0..{len(graphs) - 1}")
                graph = graphs[index]
            else:
                graph = by_title.get(row_id)
                if graph is None:
                    raise DatasetError(f"task {name!r}: label id {row_id!r} matches no record title")
            examples.append(LabeledExample(graph=graph, task_id=0, label=label, example_id=row_id))
        checks = {"molecules.sdf": _sha256(sdf_path), "labels.csv": _sha256(labels_path)}
        return examples, checks, False
    if spec_path.is_file():
        spec = parse_synthetic_spec(spec_path.read_text(encoding="utf-8"))
        examples = generate_synthetic(spec, _task_seed(seed, name))
        return examples, {f"{name}.synth": _sha256(spec_path)}, True
    raise DatasetError(f"cannot resolve task {name!r}: no directory {task_dir} or spec file {spec_path}")


def _subsample_majority(examples: list[LabeledExample], seed: int, name: str) -> list[LabeledExample]:
    """Drop randomly chosen majority-class examples until the classes match."""
    positives = [k for k, ex in enumerate(examples) if ex.label == 1]
    negatives = [k for k, ex in enumerate(examples) if ex.label == 0]
    if not positives or not negatives or len(positives) == len(negatives):
        return examples
    majority, minority = (positives, negatives) if len(positives) > len(negatives) else (negatives, positives)
    rng = np.random.default_rng((seed, zlib.crc32(name.encode("utf-8")), 0xBA1A))
    kept = set(rng.permutation(majority)[: len(minority)].tolist()) | set(minority)
    return [ex for k, ex in enumerate(examples) if k in kept]


def load_roster(resolved: dict, config: ExperimentConfig) -> tuple[dict[str, list[LabeledExample]], dict, list[str]]:
    if not config.tasks:
        raise ConfigError("no tasks configured; set tasks=... or pass --task")
    data_dir = Path(resolved.get("data_dir", "."))
    datasets: dict[str, list[LabeledExample]] = {}
    checksums: dict = {}
    all_synthetic = True
    for task_id, name in enumerate(config.tasks):
        examples, checks, is_synth = resolve_task(data_dir, name, config.seed)
        all_synthetic = all_synthetic and is_synth
        if resolved.get("balance") and not is_synth:
            # synthetic specs control balance directly; only disk data is rebalanced
            examples = _subsample_majority(examples, config.seed, name)
        for ex in examples:
            ex.task_id = task_id
        datasets[name] = examples
        checksums[name] = checks
    if "vocab" in resolved:
        vocab = list(resolved["vocab"])
    else:
        vocab = list(SYNTHETIC_ALPHABET if all_synthetic else DEFAULT_VOCAB)
    for examples in datasets.values():
        for ex in examples:
            ex.graph = featurize(ex.graph, vocab)
    # identical source graphs must stay identical objects for the prepare cache
    return datasets, checksums, vocab


def _write_manifest(out_dir: Path, command: str, resolved: dict, checksums: dict,
                    artifacts: dict[str, str], started: float) -> None:
    manifest = {
        "command": command,
        "library_version": __version__,
        "config": {k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in sorted(resolved.items())},
        "datasets": checksums,
        "artifacts": artifacts,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands --------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    config = experiment_config(resolved)
    out_dir = _out_dir(args)
    datasets, checksums, vocab = load_roster(resolved, config)
    splits = {name: split_dataset(examples, config.seed) for name, examples in datasets.items()}

    log_path = out_dir / "epochs.log"
    with open(log_path, "w", encoding="utf-8") as log_file:

        def log_fn(record):
            line = record.format_line()
            log_file.write(line + "\n")
            log_file.flush()
            if not args.quiet:
                print(line)

        result = train(splits, config, log_fn=log_fn)

    meta = {
        "model": result.model_config.to_dict(),
        "tasks": result.task_names,
        "mode": config.mode,
        "hops": config.hops,
        "vocab": vocab,
        "seed": config.seed,
        "library_version": __version__,
    }
    checkpoint_path = out_dir / "checkpoint.bin"
    save_checkpoint(checkpoint_path, result.params.arrays(), meta)
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    _write_manifest(out_dir, "train", resolved, checksums,
                    {"checkpoint": str(checkpoint_path), "metrics": str(metrics_path),
                     "epochs_log": str(log_path)}, started)
    print(f"best epoch {result.best_epoch}; test metrics written to {metrics_path}")
    return EXIT_OK


def _load_model(path: str) -> tuple[ModelParams, dict]:
    """The checkpoint's parameters, checked name by name and shape by shape
    against the set its model configuration implies."""
    arrays, meta = load_checkpoint(path)
    try:
        model_config = ModelConfig.from_dict(meta["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint metadata is unusable: {exc}") from None
    params = ModelParams.initialize(model_config, seed=0)
    for name, expected in params.tensors.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        if arrays[name].shape != expected.shape:
            raise CheckpointError(
                f"checkpoint parameter {name!r} has shape {arrays[name].shape}, the model needs {expected.shape}"
            )
    for name in arrays:
        if name not in params.tensors:
            raise CheckpointError(f"checkpoint holds parameter {name!r}, which the model does not have")
    params.load_arrays(arrays)
    return params, meta


def _eval_pool(args: argparse.Namespace, resolved: dict, meta: dict):
    config = experiment_config({**resolved, "tasks": meta["tasks"], "mode": meta["mode"],
                                "seed": resolved.get("seed", meta["seed"])})
    data_dir = Path(resolved.get("data_dir", "."))
    vocab = meta["vocab"]
    checksums: dict = {}
    pool: list[LabeledExample] = []
    for task_id, name in enumerate(meta["tasks"]):
        examples, checks, _ = resolve_task(data_dir, name, config.seed)
        checksums[name] = checks
        for ex in examples:
            ex.task_id = task_id
            ex.graph = featurize(ex.graph, vocab)
            pool.append(ex)
    return pool, checksums


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    out_dir = _out_dir(args)
    params, meta = _load_model(args.checkpoint)
    pool, checksums = _eval_pool(args, resolved, meta)
    queries = build_queries(meta["mode"], len(meta["tasks"]))
    prepared = prepare_examples(pool, params.config, queries)
    scores = predict_scores(params, prepared, meta["hops"])
    report = compute_metrics(scores, [ex.label for ex in prepared], [ex.task_id for ex in prepared])
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "eval", resolved, checksums, {"metrics": str(metrics_path)}, started)
    print(f"metrics written to {metrics_path}")
    return EXIT_OK


def cmd_fingerprint(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    out_dir = _out_dir(args)
    sdf_path = Path(args.input)
    if not sdf_path.is_file():
        raise DatasetError(f"no such SDF file: {sdf_path}")
    graphs = parse_sdf(sdf_path.read_text(encoding="utf-8"))
    vocab = resolved.get("vocab", list(DEFAULT_VOCAB))
    nbits = args.nbits if args.nbits is not None else resolved.get("nbits", DEFAULT_NBITS)
    radius = args.radius if args.radius is not None else resolved.get("radius", DEFAULT_RADIUS)
    rows = []
    for index, graph in enumerate(graphs):
        feat = featurize(graph, vocab)
        example_id = graph.title if graph.title else str(index)
        rows.append((example_id, circular_fingerprint(feat, radius=radius, nbits=nbits)))
    csv_path = out_dir / "fingerprints.csv"
    csv_path.write_text(fingerprint_csv(rows), encoding="utf-8")
    _write_manifest(out_dir, "fingerprint", {**resolved, "nbits": nbits, "radius": radius},
                    {"input": {sdf_path.name: _sha256(sdf_path)}}, {"fingerprints": str(csv_path)}, started)
    print(f"{len(rows)} fingerprints written to {csv_path}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    out_dir = _out_dir(args)
    seed = resolved.get("seed", 0)
    neighbor_mode = experiment_config(resolved).neighbor_mode
    report = run_gradient_check(seed=seed, graphs=args.graphs, neighbor_mode=neighbor_mode)
    print(report.summary())
    _write_manifest(out_dir, "gradcheck", {**resolved, "graphs": args.graphs}, {},
                    {"max_relative_error": f"{report.max_relative_error:.6e}"}, started)
    return EXIT_OK if report.passed else 1


def cmd_dump_attention(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    out_dir = _out_dir(args)
    params, meta = _load_model(args.checkpoint)
    pool, checksums = _eval_pool(args, resolved, meta)
    queries = build_queries(meta["mode"], len(meta["tasks"]))
    prepared = prepare_examples(pool, params.config, queries)
    dump_path = out_dir / "attention.jsonl"
    with open(dump_path, "w", encoding="utf-8") as fh:
        for ex in prepared:
            result = forward(ex.prepared, ex.query, params, meta["hops"])
            record = {
                "id": ex.example_id,
                "attention": result.attention_trace(),
                "probability": result.probability.item(),
            }
            fh.write(json.dumps(record) + "\n")
    _write_manifest(out_dir, "dump-attention", resolved, checksums, {"attention": str(dump_path)}, started)
    print(f"attention for {len(prepared)} examples written to {dump_path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    out_dir = _out_dir(args)
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise DatasetError(f"no such spec file: {spec_path}")
    spec = parse_synthetic_spec(spec_path.read_text(encoding="utf-8"))
    seed = resolved.get("seed", 0)
    examples = generate_synthetic(spec, seed)
    task_name = spec_path.stem
    sdf_path = out_dir / "molecules.sdf"
    sdf_path.write_text(write_sdf([ex.graph for ex in examples],
                                  [ex.example_id for ex in examples]), encoding="utf-8")
    labels_path = out_dir / "labels.csv"
    lines = ["id,task,label"]
    lines.extend(f"{ex.example_id},{task_name},{ex.label}" for ex in examples)
    labels_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "synth", {**resolved, "seed": seed},
                    {task_name: {spec_path.name: _sha256(spec_path)}},
                    {"molecules": str(sdf_path), "labels": str(labels_path)}, started)
    print(f"{len(examples)} molecules written to {sdf_path}")
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value configuration file")
    shared.add_argument("--seed", type=int, help="run seed (overrides the config file)")
    shared.add_argument("--out-dir", default="graphmem_out", help="directory for artifacts")
    shared.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config key (repeatable)")

    parser = argparse.ArgumentParser(prog="graphmem",
                                     description="graph memory networks for molecular activity")
    parser.add_argument("--version", action="version", version=f"graphmem {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_train = commands.add_parser("train", parents=[shared], help="train a model")
    p_train.add_argument("--mode", choices=("single", "multi"))
    p_train.add_argument("--task", action="append", help="task name (repeatable; overrides tasks=)")
    p_train.add_argument("--data-dir", help="directory holding task datasets")
    p_train.add_argument("--balance", action="store_true",
                         help="subsample the majority class of disk datasets (seeded)")
    p_train.add_argument("--quiet", action="store_true", help="do not echo epoch lines")
    p_train.set_defaults(func=cmd_train)

    p_eval = commands.add_parser("eval", parents=[shared], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data-dir", help="directory holding task datasets")
    p_eval.set_defaults(func=cmd_eval)

    p_fp = commands.add_parser("fingerprint", parents=[shared], help="export circular fingerprints")
    p_fp.add_argument("--input", required=True, help="SDF file")
    p_fp.add_argument("--nbits", type=int)
    p_fp.add_argument("--radius", type=int)
    p_fp.set_defaults(func=cmd_fingerprint)

    p_gc = commands.add_parser("gradcheck", parents=[shared],
                               help="certify exact gradients against finite differences")
    p_gc.add_argument("--graphs", type=int, default=5)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_dump = commands.add_parser("dump-attention", parents=[shared],
                                 help="write per-hop attention weights as JSON lines")
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--data-dir", help="directory holding task datasets")
    p_dump.set_defaults(func=cmd_dump_attention)

    p_synth = commands.add_parser("synth", parents=[shared], help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="synthetic spec file")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, MolfileError, SyntheticSpecError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
