"""The acceptance gate.

Each test is one criterion, checked at its stated tolerance, printing one
PASS/FAIL line (run with ``pytest -s`` to watch them stream). The learning
criteria are seeded end-to-end runs and dominate the wall time.
"""

import time
import warnings

import numpy as np
import pytest

from graphmem.fingerprint import circular_fingerprint
from graphmem.gradcheck import run_gradient_check
from graphmem.model import HopState, _memory_bias, forward, memory_step, prepare_graph
from graphmem.molgraph import (
    SYNTHETIC_ALPHABET,
    LabeledExample,
    SyntheticSpec,
    detect_ring_edges,
    featurize,
    generate_synthetic,
    random_graph,
)
from graphmem.numerics import Tensor
from graphmem.training import (
    ExperimentConfig,
    TaskSplit,
    build_queries,
    compute_metrics,
    predict_scores,
    prepare_examples,
    train,
)

from _oracles import (
    LogisticConfig,
    edge_in_ring_oracle,
    f1_counts_oracle,
    logistic_baseline_train,
    mean_passing_oracle,
    micro_f1_oracle,
    neighbor_lists,
    pairwise_auc,
)
from test_model import make_params, mean_passing_params, permute_graph, small_config


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def synthetic_task(spec: SyntheticSpec, seed: int) -> list[LabeledExample]:
    examples = generate_synthetic(spec, seed)
    for ex in examples:
        ex.graph = featurize(ex.graph, SYNTHETIC_ALPHABET)
    return examples


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(((scores >= 0.5).astype(int) == labels).mean())


def test_gradient_certification():
    started = time.time()
    result = run_gradient_check(seed=7, graphs=5)
    elapsed = time.time() - started
    report(
        "gradient certification",
        result.passed and elapsed <= 60.0,
        f"max rel err {result.max_relative_error:.3e} <= 1e-4 over {len(result.per_graph)} graphs "
        f"alone and in one pack with a single atom and an isolated node "
        f"(pack {result.pack_error:.3e}), {elapsed:.1f}s <= 60s",
    )


def test_gradient_certification_learned_neighbors():
    result = run_gradient_check(seed=7, graphs=2, neighbor_mode="learned")
    report(
        "gradient certification, learned neighbors",
        result.passed,
        f"max rel err {result.max_relative_error:.3e} <= 1e-4 over {len(result.per_graph)} graphs "
        f"alone and in one pack (pack {result.pack_error:.3e})",
    )


def test_attention_normalization():
    rng = np.random.default_rng(81)
    cfg = small_config(n_relations=3, memory=8, controller=8)
    worst = 0.0
    for trial in range(100):
        params = make_params(cfg, seed=trial)
        params["attn.score"].data[...] = rng.normal(size=cfg.controller_size)
        graph = featurize(random_graph(rng, 3, 10, 3), SYNTHETIC_ALPHABET)
        result = forward(graph, np.ones(1), params, hops=3)
        for state in result.states[1:]:
            worst = max(worst, abs(state.attention.data.sum() - 1.0))
    report("attention normalization", worst <= 1e-9,
           f"worst |sum - 1| = {worst:.2e} over 100 forwards x 3 hops")


def test_permutation_equivariance():
    rng = np.random.default_rng(82)
    cfg = small_config(n_relations=3, memory=8, controller=8)
    worst = 0.0
    for trial in range(50):
        params = make_params(cfg, seed=900 + trial)
        params["attn.score"].data[...] = rng.normal(size=cfg.controller_size)
        graph = featurize(random_graph(rng, 3, 10, 3), SYNTHETIC_ALPHABET)
        perm = rng.permutation(graph.n_nodes)
        base = forward(graph, np.ones(1), params, hops=3).probability.item()
        other = forward(permute_graph(graph, perm), np.ones(1), params, hops=3).probability.item()
        worst = max(worst, abs(base - other))
    report("permutation equivariance", worst <= 1e-9,
           f"worst probability shift {worst:.2e} over 50 (graph, permutation) pairs")


def test_message_passing_reduction():
    rng = np.random.default_rng(83)
    cfg = small_config(memory=4, controller=3)
    params = mean_passing_params(cfg)
    worst = 0.0
    for _ in range(20):
        graph = featurize(random_graph(rng, 3, 6, 1), SYNTHETIC_ALPHABET)
        prepared = prepare_graph(graph, cfg)
        bias = _memory_bias(params, prepared)
        cells = rng.uniform(0.0, 1.0, size=(graph.n_nodes, 4))
        for hops in (1, 2, 3):
            state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
            for _hop in range(hops):
                memory = memory_step(state, Tensor(np.zeros((1, 3))), params, prepared, bias)
                state = HopState(t=state.t + 1, controller=state.controller, memory=memory)
            expected = mean_passing_oracle(neighbor_lists(graph)[0], cells, hops=hops)
            worst = max(worst, float(np.abs(state.memory.data - expected).max()))
    report("message-passing reduction", worst <= 1e-12,
           f"worst |cell - oracle| = {worst:.2e} for T in {{1,2,3}}, M <= 6")


def test_synthetic_single_task_learning():
    started = time.time()
    spec = SyntheticSpec(nodes_min=8, nodes_max=16, relations=3, motif="triangle:2",
                         balance=0.5, count=2500)
    examples = synthetic_task(spec, seed=2024)
    # 2000-example training pool (200 of it held out to drive early stopping), 500 test
    split = TaskSplit(train=examples[:1800], val=examples[1800:2000], test=examples[2000:])
    config = ExperimentConfig(hops=4, memory_size=32, controller_size=32, dropout=0.0,
                              learning_rate=3e-3, batch_size=32, max_epochs=200, patience=6,
                              seed=0, mode="single")
    result = train({"triangle2": split}, config)
    elapsed = time.time() - started
    auc = result.metrics.average_auc

    # fingerprint + logistic baseline on the same split, reported without a threshold
    def bits(rows):
        return np.stack([circular_fingerprint(ex.graph, radius=2, nbits=1024) for ex in rows]).astype(float)
    model = logistic_baseline_train(bits(split.train), [ex.label for ex in split.train],
                                    LogisticConfig(steps=300, learning_rate=0.1))
    test_bits = bits(split.test)
    baseline_scores = 1.0 / (1.0 + np.exp(-(test_bits @ model.weights + model.bias)))
    baseline = compute_metrics(baseline_scores, [ex.label for ex in split.test],
                               [0] * len(split.test))
    print(f"       baseline (fingerprint+logistic): micro_f1 {baseline.micro_f1:.3f}, "
          f"auc {baseline.average_auc:.3f}", flush=True)

    report(
        "synthetic single-task learning",
        auc >= 0.95 and len(result.history) <= 200 and elapsed <= 300.0,
        f"test AUC {auc:.4f} >= 0.95 in {len(result.history)} epochs "
        f"(best {result.best_epoch}), {elapsed:.0f}s <= 300s",
    )


def _complementary_tasks() -> dict[str, TaskSplit]:
    spec = SyntheticSpec(nodes_min=8, nodes_max=16, relations=3, motif="triangle:2",
                         balance=0.5, count=1000)
    examples = synthetic_task(spec, seed=99)

    def as_task(task_id: int, flip: bool) -> TaskSplit:
        tagged = [
            LabeledExample(graph=ex.graph, task_id=task_id,
                           label=(1 - ex.label) if flip else ex.label,
                           example_id=f"t{task_id}-{ex.example_id}")
            for ex in examples
        ]
        return TaskSplit(train=tagged[:700], val=tagged[700:850], test=tagged[850:])

    return {"plain": as_task(0, False), "flipped": as_task(1, True)}


def test_multi_task_query_routing():
    started = time.time()
    tasks = _complementary_tasks()
    config = ExperimentConfig(hops=4, memory_size=32, controller_size=32, dropout=0.0,
                              learning_rate=3e-3, batch_size=32, max_epochs=60, patience=10,
                              seed=1, mode="multi")
    result = train(tasks, config)
    auc0, auc1 = result.metrics.per_task_auc[0], result.metrics.per_task_auc[1]

    # ablation: a constant query has no way to tell the two tasks apart
    ablation_config = ExperimentConfig(hops=4, memory_size=32, controller_size=32, dropout=0.0,
                                       learning_rate=3e-3, batch_size=32, max_epochs=12,
                                       patience=4, seed=1, mode="single")
    ablation = train(tasks, ablation_config)
    queries = build_queries("single", 2)
    test_pool = prepare_examples(tasks["plain"].test + tasks["flipped"].test,
                                 ablation.model_config, queries)
    scores = predict_scores(ablation.params, test_pool, ablation_config.hops)
    labels = np.array([ex.label for ex in test_pool])
    task_ids = np.array([ex.task_id for ex in test_pool])
    accs = [accuracy(scores[task_ids == t], labels[task_ids == t]) for t in (0, 1)]
    elapsed = time.time() - started

    report(
        "multi-task query routing",
        auc0 >= 0.9 and auc1 >= 0.9 and min(accs) <= 0.55,
        f"one-hot AUCs ({auc0:.3f}, {auc1:.3f}) >= 0.9; constant-query accuracies "
        f"({accs[0]:.3f}, {accs[1]:.3f}), min <= 0.55; {elapsed:.0f}s",
    )


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(84)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        n_tasks = int(rng.integers(1, 4))
        scores = np.round(rng.random(n), 2)  # coarse grid provokes rank ties
        labels = rng.integers(0, 2, size=n)
        tasks = rng.integers(0, n_tasks, size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = compute_metrics(scores, labels, tasks)
        per_task_f1 = {}
        per_task_auc = {}
        for tid in sorted(set(tasks.tolist())):
            mask = tasks == tid
            per_task_f1[tid] = f1_counts_oracle(scores[mask], labels[mask])
            per_task_auc[tid] = pairwise_auc(scores[mask].tolist(), labels[mask].tolist())
        assert got.micro_f1 == micro_f1_oracle(scores, labels, tasks)
        assert got.per_task_f1 == per_task_f1
        assert got.macro_f1 == float(np.mean(list(per_task_f1.values())))
        assert got.per_task_auc == per_task_auc
        defined = [a for a in per_task_auc.values() if a is not None]
        assert got.average_auc == (float(np.mean(defined)) if defined else None)
        checked += 1
    report("metric oracle equivalence", checked == 200,
           f"micro/macro F1 and AUC exactly match enumeration on {checked} instances")


def test_fingerprint_determinism_and_invariance():
    from test_molgraph import BENZENE
    from graphmem.molgraph import MolecularGraph, parse_molfile

    benzene_a = circular_fingerprint(featurize(parse_molfile(BENZENE)), radius=2, nbits=1024)
    benzene_b = circular_fingerprint(featurize(parse_molfile(BENZENE)), radius=2, nbits=1024)
    identical = benzene_a.tobytes() == benzene_b.tobytes()
    # frozen from an independent implementation of the hashing procedure
    frozen = np.flatnonzero(benzene_a).tolist() == [147, 737, 903]

    rng = np.random.default_rng(85)
    invariant = True
    for _ in range(50):
        graph = random_graph(rng, 3, 12, 3, alphabet=("C", "N", "O", "S"))
        perm = rng.permutation(graph.n_nodes)
        symbols = [""] * graph.n_nodes
        for old, node in enumerate(graph.nodes):
            symbols[perm[old]] = node.symbol
        bonds = [(int(perm[e.i]), int(perm[e.j]), e.relation) for e in graph.edges]
        relabeled = MolecularGraph.from_bonds(symbols, bonds, graph.n_relations)
        fp_a = circular_fingerprint(featurize(graph), radius=2, nbits=1024)
        fp_b = circular_fingerprint(featurize(relabeled), radius=2, nbits=1024)
        invariant = invariant and fp_a.tobytes() == fp_b.tobytes()

    report("fingerprint determinism and invariance", identical and frozen and invariant,
           "byte-identical across runs, matches frozen independent bits, "
           "invariant under relabeling on 50 molecules")


def test_ring_detection_against_oracle():
    rng = np.random.default_rng(86)
    checked = 0
    exact = True
    while checked < 500:
        graph = random_graph(rng, 2, 8, 2)
        if len(graph.edges) > 12:
            continue
        edges = [(e.i, e.j) for e in graph.edges]
        expected = [edge_in_ring_oracle(graph.n_nodes, edges, k) for k in range(len(edges))]
        exact = exact and detect_ring_edges(graph).tolist() == expected
        checked += 1
    report("ring detection", exact, f"matches remove-edge connectivity oracle on {checked} graphs")


def test_joint_beats_separate_trend():
    started = time.time()
    motifs = ["triangle:1", "triangle:2", "triangle:3"]
    datasets = [
        synthetic_task(
            SyntheticSpec(nodes_min=8, nodes_max=16, relations=3, motif=motif, balance=0.5, count=400),
            seed=500 + k,
        )
        for k, motif in enumerate(motifs)
    ]

    def as_split(examples: list[LabeledExample], task_id: int) -> TaskSplit:
        tagged = [
            LabeledExample(graph=ex.graph, task_id=task_id, label=ex.label,
                           example_id=f"t{task_id}-{ex.example_id}")
            for ex in examples
        ]
        return TaskSplit(train=tagged[:300], val=tagged[300:350], test=tagged[350:])

    base = dict(hops=3, memory_size=24, controller_size=24, dropout=0.0,
                learning_rate=3e-3, batch_size=32, max_epochs=50, patience=8)

    joint_tasks = {m: as_split(ds, k) for k, (m, ds) in enumerate(zip(motifs, datasets))}
    joint = train(joint_tasks, ExperimentConfig(mode="multi", seed=5, **base))
    joint_mean = float(np.mean([joint.metrics.per_task_f1[k] for k in range(3)]))

    separate_f1 = []
    for motif, dataset in zip(motifs, datasets):
        result = train({motif: as_split(dataset, 0)}, ExperimentConfig(mode="single", seed=5, **base))
        separate_f1.append(result.metrics.per_task_f1[0])
    separate_mean = float(np.mean(separate_f1))
    elapsed = time.time() - started

    report(
        "joint-beats-separate trend",
        joint_mean >= separate_mean,
        f"mean per-task F1 joint {joint_mean:.4f} >= separate {separate_mean:.4f} "
        f"(300 train examples per task, 3 tasks); {elapsed:.0f}s",
    )
