"""Command-line entry point.

Commands: ``train``, ``eval``, ``fingerprint``, ``gradcheck``,
``dump-attention``, ``synth``. Configuration is a flat ``key=value`` file,
overridden by ``--set`` and then by the flags of ``_FLAG_KEYS``; a command
takes only the keys ``_COMMAND_KEYS`` lists for it. Every
successful run writes a manifest with the resolved configuration, seeds,
dataset checksums, and artifact paths, sufficient to reproduce the run
bit-identically.

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
from dataclasses import fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .fingerprint import (DEFAULT_NBITS, DEFAULT_RADIUS, check_options, circular_fingerprints, fingerprint_csv,
                          fingerprint_lines)
from .gradcheck import run_gradient_check
from .model import MAX_HOPS, ModelConfig, ModelParams
from .molgraph import (
    DEFAULT_VOCAB,
    SYNTHETIC_ALPHABET,
    DatasetError,
    LabeledExample,
    MolecularGraph,
    MolfileError,
    SyntheticSpecError,
    featurize,
    generate_synthetic,
    node_feature_dim,
    parse_key_values,
    parse_sdf,
    parse_synthetic_spec,
    read_labels_csv,
    write_sdf,
)
from .training import (
    MODES,
    ConfigError,
    ExperimentConfig,
    NumericError,
    PreparedExample,
    budget_runs,
    build_queries,
    compute_metrics,
    inference_packs,
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

# graphmem fingerprint hashes runs of consecutive molecules with at most
# this many atoms in all. A hashing round costs a few numpy calls per word
# column whatever the run's size, so short runs pay that overhead often: on
# a 6,300-atom library, runs of 4,096 atoms hash in about four fifths of
# the time runs of 1,024 take. Larger runs gain little, while the run's
# element slots and hashing arrays (word rows, identifiers) live together.
FINGERPRINT_CHUNK_ATOMS = 4096

# How each config key parses: every ExperimentConfig field by its type (a
# tuple as a comma list), then the keys only the command line reads.
_CONFIG_TYPES = {field.name: "list" if get_origin(kind) is tuple else kind
                 for field in fields(ExperimentConfig)
                 for kind in (get_type_hints(ExperimentConfig)[field.name],)}
_CONFIG_TYPES.update(vocab="list", data_dir=str, nbits=int, radius=int, balance=bool)

# The config keys each command reads. resolve_config refuses any other key,
# from every source, so a manifest records only settings that took effect.
_COMMAND_KEYS = {"train": (*(field.name for field in fields(ExperimentConfig)), "vocab", "data_dir", "balance"),
                 "eval": ("data_dir", "seed"),  # the seed regenerates .synth tasks
                 "dump-attention": ("data_dir", "seed"),
                 "fingerprint": ("vocab", "nbits", "radius"),
                 "gradcheck": ("seed", "neighbor_mode"),
                 "synth": ("seed",)}

# The flags that set a config key, as (flag dest, key) rows. A flag given
# on the command line wins over the config file and --set.
_FLAG_KEYS = (("seed", "seed"), ("mode", "mode"), ("data_dir", "data_dir"), ("task", "tasks"),
              ("balance", "balance"), ("nbits", "nbits"), ("radius", "radius"))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _repeated_symbols(vocab) -> list[str]:
    """The symbols a vocabulary lists more than once. featurize gives such
    a symbol its last slot, and its earlier slots stay always zero."""
    return sorted({symbol for k, symbol in enumerate(vocab) if symbol in vocab[:k]})


def read_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_key_values(text, str(path), ConfigError)


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge the config file, then ``--set``, then the flags of
    ``_FLAG_KEYS``: a later source wins. A key that ``args.command`` does
    not read (see ``_COMMAND_KEYS``) is refused, whatever its source."""
    raw = read_config_file(args.config) if getattr(args, "config", None) else {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key] = value
    flags = {key: getattr(args, dest) for dest, key in _FLAG_KEYS if getattr(args, dest, None) is not None}
    readable = _COMMAND_KEYS[args.command]
    for key in [*raw, *flags]:
        if key not in readable:
            raise ConfigError(f"unknown config key {key!r} for {args.command}, which reads {', '.join(readable)}")

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
    repeated = _repeated_symbols(resolved.get("vocab", []))
    if repeated:
        raise ConfigError(f"config key 'vocab' lists {', '.join(repeated)} more than once")

    return {**resolved, **flags}


def experiment_config(resolved: dict) -> ExperimentConfig:
    values = {k: tuple(v) if _CONFIG_TYPES[k] == "list" else v
              for k, v in resolved.items() if k in ExperimentConfig.__dataclass_fields__}
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# -- dataset resolution ---------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text(path: Path, data: bytes) -> str:
    """``data``, the bytes of the data file ``path``, as text, without a
    leading byte-order mark (as the config file is read)."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from None


def _task_seed(seed: int, name: str) -> int:
    return (seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % (2**63)


def resolve_task(data_dir: Path, name: str, seed: int,
                 libraries: dict[str, list[MolecularGraph]]) -> tuple[list[LabeledExample], dict, bool]:
    """Load one task by name: a directory of molecules.sdf + labels.csv, or
    a ``<name>.synth`` spec regenerated deterministically from the run seed.
    Returns (examples, checksums, is_synthetic).

    ``libraries`` maps the sha256 of each molecules.sdf read so far to its
    parsed graphs: tasks whose files hold the same bytes share one parse
    and one set of graph objects."""
    task_dir = data_dir / name
    spec_path = data_dir / f"{name}.synth"
    if task_dir.is_dir():
        sdf_path = task_dir / "molecules.sdf"
        labels_path = task_dir / "labels.csv"
        for required in (sdf_path, labels_path):
            if not required.is_file():
                raise DatasetError(f"task {name!r}: missing {required}")
        sdf_bytes, labels_bytes = sdf_path.read_bytes(), labels_path.read_bytes()
        sdf_sha256 = _sha256(sdf_bytes)
        graphs = libraries.get(sdf_sha256)
        if graphs is None:
            graphs = libraries[sdf_sha256] = parse_sdf(_text(sdf_path, sdf_bytes))
        labels_text = _text(labels_path, labels_bytes)
        try:
            rows = read_labels_csv(labels_text)
        except DatasetError as exc:
            raise DatasetError(f"task {name!r}: {labels_path}: {exc}") from None
        if not rows:
            raise DatasetError(f"task {name!r}: {labels_path} has no labelled rows")
        by_title = {}
        for g in graphs:
            by_title.setdefault(g.title, g)
        examples = []
        for row_id, _task, label in rows:
            graph = None
            if row_id.removeprefix("-").isdecimal():  # digits int() reads: a record index
                index = int(row_id)
                if not (0 <= index < len(graphs)):
                    raise DatasetError(f"task {name!r}: label id {row_id} outside 0..{len(graphs) - 1}")
                graph = graphs[index]
            else:
                graph = by_title.get(row_id)
                if graph is None:
                    raise DatasetError(f"task {name!r}: label id {row_id!r} matches no record title")
            examples.append(LabeledExample(graph=graph, task_id=0, label=label, example_id=row_id))
        return examples, {"molecules.sdf": sdf_sha256, "labels.csv": _sha256(labels_bytes)}, False
    if spec_path.is_file():
        spec_bytes = spec_path.read_bytes()
        spec = parse_synthetic_spec(_text(spec_path, spec_bytes), str(spec_path))
        examples = generate_synthetic(spec, _task_seed(seed, name))
        return examples, {f"{name}.synth": _sha256(spec_bytes)}, True
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
    libraries: dict[str, list[MolecularGraph]] = {}  # for this call only, see resolve_task
    all_synthetic = True
    for task_id, name in enumerate(config.tasks):
        examples, checks, is_synth = resolve_task(data_dir, name, config.seed, libraries)
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
    _featurize_once([ex for examples in datasets.values() for ex in examples], vocab)
    return datasets, checksums, vocab


def _featurize_once(examples: list[LabeledExample], vocab: list[str]) -> None:
    """Featurize the examples' graphs, once per source graph object: label
    rows naming the same record, in one task or in tasks that share a
    library, then share one featurized graph."""
    done: dict[int, tuple[MolecularGraph, MolecularGraph]] = {}
    for ex in examples:
        key = id(ex.graph)
        if key not in done:
            done[key] = (ex.graph, featurize(ex.graph, vocab))  # holding the source keeps its id unique
        ex.graph = done[key][1]


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
    datasets, checksums, vocab = load_roster(resolved, config)
    out_dir = _out_dir(args)
    splits = {name: split_dataset(examples, config.seed) for name, examples in datasets.items()}

    log_path = out_dir / "epochs.log"

    def log_fn(record):  # the first record makes the log, so a run that train refuses leaves none
        line = record.format_line()
        with open(log_path, "w" if record.epoch == 1 else "a", encoding="utf-8") as log_file:
            log_file.write(line + "\n")
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
                    {**_checkpoint_record(checkpoint_path), "metrics": str(metrics_path),
                     "epochs_log": str(log_path)}, started)
    print(f"best epoch {result.best_epoch}; test metrics written to {metrics_path}")
    return EXIT_OK


def _checkpoint_record(path: str | Path) -> dict[str, str]:
    """The manifest's record of a checkpoint: its path and the sha256 of its
    bytes, which ties a run's outputs to the file they came from."""
    return {"checkpoint": str(path), "checkpoint_sha256": _sha256(Path(path).read_bytes())}


def _check_run_meta(meta: dict, model_config: ModelConfig) -> None:
    """Refuse run settings in checkpoint metadata that eval and
    dump-attention could not use: the task roster, mode, hops and seed,
    and a query width that does not fit the mode and roster."""
    tasks, mode = meta.get("tasks"), meta.get("mode")
    if (not isinstance(tasks, list) or not tasks or not all(isinstance(name, str) for name in tasks)
            or len(set(tasks)) != len(tasks)):
        raise CheckpointError(f"checkpoint metadata: tasks must be a non-empty list of distinct names, got {tasks!r}")
    if mode not in MODES:
        raise CheckpointError(f"checkpoint metadata: mode must be one of {MODES}, got {mode!r}")
    hops, seed = meta.get("hops"), meta.get("seed")
    if type(hops) is not int or not 1 <= hops <= MAX_HOPS:  # type(), not isinstance: True is no hop count
        raise CheckpointError(f"checkpoint metadata: hops must be an integer >= 1 and <= {MAX_HOPS}, got {hops!r}")
    if type(seed) is not int or seed < 0:
        raise CheckpointError(f"checkpoint metadata: seed must be an integer >= 0, got {seed!r}")
    query_dim = 1 if mode == "single" else len(tasks)
    if model_config.query_dim != query_dim:
        raise CheckpointError(f"checkpoint metadata: the model's query width {model_config.query_dim} "
                              f"does not fit {mode} mode over {len(tasks)} task(s), which needs {query_dim}")


def _load_model(path: str) -> tuple[ModelParams, dict]:
    """The checkpoint's parameters, checked name by name and shape by shape
    against the set its model configuration implies, and its run metadata."""
    arrays, meta = load_checkpoint(path)
    try:
        model_config = ModelConfig.from_dict(meta["model"])
        repeated = _repeated_symbols(meta["vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint metadata is unusable: {exc}") from None
    if repeated:
        raise CheckpointError(f"checkpoint vocabulary lists {', '.join(repeated)} more than once")
    vocab = meta["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(symbol, str) for symbol in vocab):
        raise CheckpointError(f"checkpoint metadata: vocab must be a list of element symbols, got {vocab!r}")
    if node_feature_dim(vocab) != model_config.node_feat_dim:
        raise CheckpointError(f"checkpoint vocabulary of {len(vocab)} symbols gives node features of width "
                              f"{node_feature_dim(vocab)}, but the model expects {model_config.node_feat_dim}")
    _check_run_meta(meta, model_config)
    params = ModelParams.initialize(model_config, seed=0)
    try:
        params.load_arrays(arrays)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} {exc}") from None
    return params, meta


def _eval_pool(resolved: dict, meta: dict) -> tuple[list[LabeledExample], dict]:
    """The examples of the checkpoint's roster, task after task, featurized
    with its vocabulary and never rebalanced, and their checksums. A
    ``.synth`` task is regenerated from the resolved seed, or else from the
    checkpoint's."""
    config = experiment_config({"tasks": meta["tasks"], "seed": resolved.get("seed", meta["seed"])})
    datasets, checksums, _ = load_roster({**resolved, "vocab": meta["vocab"]}, config)
    return [ex for name in config.tasks for ex in datasets[name]], checksums


def _checkpoint_inputs(args: argparse.Namespace) -> tuple[dict, Path, ModelParams, dict, dict, dict,
                                                          list[PreparedExample]]:
    """What eval and dump-attention read: the resolved config, the out dir,
    the checkpoint's parameters, metadata and manifest record (see
    :func:`_checkpoint_record`), the dataset checksums, and the prepared
    examples of every task in the checkpoint's roster."""
    resolved = resolve_config(args)
    params, meta = _load_model(args.checkpoint)
    checkpoint = _checkpoint_record(args.checkpoint)
    pool, checksums = _eval_pool(resolved, meta)
    prepared = prepare_examples(pool, params.config, build_queries(meta["mode"], len(meta["tasks"])))
    return resolved, _out_dir(args), params, meta, checkpoint, checksums, prepared


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    resolved, out_dir, params, meta, checkpoint, checksums, prepared = _checkpoint_inputs(args)
    scores = predict_scores(params, prepared, meta["hops"])
    report = compute_metrics(scores, [ex.label for ex in prepared], [ex.task_id for ex in prepared])
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "eval", resolved, checksums, {**checkpoint, "metrics": str(metrics_path)}, started)
    print(f"metrics written to {metrics_path}")
    return EXIT_OK


def cmd_fingerprint(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    nbits = resolved.get("nbits", DEFAULT_NBITS)
    radius = resolved.get("radius", DEFAULT_RADIUS)
    try:
        check_options(radius, nbits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sdf_path = Path(args.input)
    if not sdf_path.is_file():
        raise DatasetError(f"no such SDF file: {sdf_path}")
    sdf_bytes = sdf_path.read_bytes()
    graphs = parse_sdf(_text(sdf_path, sdf_bytes))
    vocab = resolved.get("vocab", list(DEFAULT_VOCAB))
    out_dir = _out_dir(args)
    csv_path = out_dir / "fingerprints.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(fingerprint_csv([]))  # the header line
        # each run's bit matrix is written as soon as it is hashed, then dropped
        for chunk in budget_runs([graph.n_nodes for graph in graphs], FINGERPRINT_CHUNK_ATOMS):
            slotted = [featurize(graph, vocab) for graph in graphs[chunk]]
            ids = [graph.title or str(index) for index, graph in zip(range(chunk.start, chunk.stop), slotted)]
            fh.write(fingerprint_lines(ids, circular_fingerprints(slotted, radius=radius, nbits=nbits)))
    _write_manifest(out_dir, "fingerprint", {**resolved, "nbits": nbits, "radius": radius},
                    {"input": {sdf_path.name: _sha256(sdf_bytes)}}, {"fingerprints": str(csv_path)}, started)
    print(f"{len(graphs)} fingerprints written to {csv_path}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    seed = resolved.get("seed", 0)
    neighbor_mode = experiment_config(resolved).neighbor_mode
    report = run_gradient_check(seed=seed, graphs=args.graphs, neighbor_mode=neighbor_mode)
    print(report.summary())
    _write_manifest(_out_dir(args), "gradcheck", {**resolved, "graphs": args.graphs}, {},
                    {"max_relative_error": f"{report.max_relative_error:.6e}"}, started)
    return EXIT_OK if report.passed else 1


def cmd_dump_attention(args: argparse.Namespace) -> int:
    started = time.time()
    resolved, out_dir, params, meta, checkpoint, checksums, prepared = _checkpoint_inputs(args)
    dump_path = out_dir / "attention.jsonl"
    with open(dump_path, "w", encoding="utf-8") as fh:
        for part, packed, result in inference_packs(params, prepared, meta["hops"]):
            trace = result.attention_trace()
            lines = []
            for ex, lo, hi, probability in zip(prepared[part], packed.slots.bounds[:-1], packed.slots.bounds[1:],
                                               result.probability.data[:, 0].tolist()):
                record = {
                    "id": ex.example_id,
                    "attention": [weights[lo:hi] for weights in trace],
                    "probability": probability,
                }
                try:  # a NaN or infinity is no JSON: refuse the pack before any of its lines
                    lines.append(json.dumps(record, allow_nan=False) + "\n")
                except ValueError:
                    raise NumericError(f"example {ex.example_id!r}: probability or attention is not finite") from None
            fh.writelines(lines)
    _write_manifest(out_dir, "dump-attention", resolved, checksums, {**checkpoint, "attention": str(dump_path)},
                    started)
    print(f"attention for {len(prepared)} examples written to {dump_path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    resolved = resolve_config(args)
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise DatasetError(f"no such spec file: {spec_path}")
    spec_bytes = spec_path.read_bytes()
    spec = parse_synthetic_spec(_text(spec_path, spec_bytes), str(spec_path))
    seed = experiment_config(resolved).seed
    examples = generate_synthetic(spec, seed)
    sdf_text = write_sdf([ex.graph for ex in examples], [ex.example_id for ex in examples])
    task_name = spec_path.stem
    out_dir = _out_dir(args)
    sdf_path = out_dir / "molecules.sdf"
    sdf_path.write_text(sdf_text, encoding="utf-8")
    labels_path = out_dir / "labels.csv"
    lines = ["id,task,label"]
    lines.extend(f"{ex.example_id},{task_name},{ex.label}" for ex in examples)
    labels_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "synth", {**resolved, "seed": seed},
                    {task_name: {spec_path.name: _sha256(spec_bytes)}},
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
                        help="set a config key the command reads (repeatable)")

    parser = argparse.ArgumentParser(prog="graphmem",
                                     description="graph memory networks for molecular activity")
    parser.add_argument("--version", action="version", version=f"graphmem {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_train = commands.add_parser("train", parents=[shared], help="train a model")
    p_train.add_argument("--mode", choices=("single", "multi"))
    p_train.add_argument("--task", action="append", help="task name (repeatable; overrides tasks=)")
    p_train.add_argument("--data-dir", help="directory holding task datasets")
    p_train.add_argument("--balance", action="store_true", default=None,
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
