"""Loss, optimizer, metrics, and the training loop contracts."""

import math

import numpy as np
import pytest

from graphmem.molgraph import SYNTHETIC_ALPHABET, SyntheticSpec, featurize, generate_synthetic
from graphmem.numerics import constant, parameter
from graphmem.training import (
    AdamState,
    ConfigError,
    ExperimentConfig,
    NumericError,
    TaskSplit,
    adam_step,
    build_queries,
    compute_metrics,
    cross_entropy,
    derive_model_config,
    prepare_examples,
    predict_scores,
    rank_auc,
    split_dataset,
    train,
)

from _oracles import f1_counts_oracle, micro_f1_oracle, pairwise_auc


def synthetic_examples(count=50, seed=5, motif="triangle:1", relations=2, nodes=(6, 10)):
    spec = SyntheticSpec(nodes_min=nodes[0], nodes_max=nodes[1], relations=relations,
                         motif=motif, balance=0.5, count=count)
    examples = generate_synthetic(spec, seed=seed)
    for ex in examples:
        ex.graph = featurize(ex.graph, SYNTHETIC_ALPHABET)
    return examples


class TestCrossEntropy:
    def test_half_probability(self):
        loss = cross_entropy(constant([0.5]), 1)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_correct_is_tiny(self):
        loss = cross_entropy(constant([1.0 - 1e-12]), 1)
        assert loss.item() == pytest.approx(1e-12, rel=1e-3)

    def test_wrong_side(self):
        loss = cross_entropy(constant([0.9]), 0)
        assert abs(loss.item() - (-math.log(0.1))) < 1e-12

    def test_clamps_extremes(self):
        assert np.isfinite(cross_entropy(constant([0.0]), 1).item())
        assert np.isfinite(cross_entropy(constant([1.0]), 0).item())

    def test_gradient_flows(self):
        p = parameter([0.3])
        cross_entropy(p, 1).backward()
        np.testing.assert_allclose(p.grad, [-1.0 / 0.3])


class TestAdam:
    CFG = ExperimentConfig(learning_rate=1e-3, hops=1, max_epochs=1)

    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(2)}, state, self.CFG)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_missing_gradient_means_zero(self):
        params = {"w": np.array([1.0]), "untouched": np.array([4.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([1.0])}, state, self.CFG)
        np.testing.assert_array_equal(params["untouched"], [4.0])

    def test_first_step_is_signed_stepsize(self):
        params = {"w": np.array([0.0, 0.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([3.0, -0.25])}, state, self.CFG)
        np.testing.assert_allclose(params["w"], [-1e-3, 1e-3], rtol=1e-6)

    def test_equal_gradients_get_equal_updates(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"a": np.array([0.7]), "b": np.array([0.7])}, state, self.CFG)
        assert params["a"][0] == params["b"][0]

    def test_non_finite_gradient_aborts_with_name(self):
        params = {"w": np.array([1.0]), "bad": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(NumericError, match="bad"):
            adam_step(params, {"w": np.array([0.0]), "bad": np.array([np.nan])}, state, self.CFG)


class TestMetrics:
    def test_perfect_scores(self):
        report = compute_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0], [0, 0, 1, 1])
        assert report.micro_f1 == 1.0
        assert report.macro_f1 == 1.0
        assert report.average_auc == 1.0

    def test_pairwise_derived_example(self):
        # pairs: (0.9 vs 0.8) ranked right, (0.3 vs 0.8) ranked wrong -> 1/2
        report = compute_metrics([0.9, 0.8, 0.3], [1, 0, 1], [0, 0, 0])
        assert report.per_task_auc[0] == 0.5

    def test_macro_is_mean_of_task_f1(self):
        # task 0: one TP one FN and 3 FP -> f1 2*0.25*0.5/0.75 = 1/3
        scores = [0.9, 0.2, 0.9, 0.9, 0.9, 0.6, 0.6, 0.4, 0.4]
        labels = [1, 1, 0, 0, 0, 1, 1, 0, 0]
        tasks = [0, 0, 0, 0, 0, 1, 1, 1, 1]
        report = compute_metrics(scores, labels, tasks)
        assert report.per_task_f1[1] == 1.0
        assert report.macro_f1 == pytest.approx((report.per_task_f1[0] + 1.0) / 2)

    def test_single_class_task_auc_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="single class"):
            report = compute_metrics([0.9, 0.8, 0.2, 0.6], [1, 1, 0, 1], [0, 0, 1, 1])
        assert report.per_task_auc[0] is None
        assert report.average_auc == report.per_task_auc[1]

    def test_all_single_class_gives_no_average(self):
        with pytest.warns(UserWarning):
            report = compute_metrics([0.9, 0.8], [1, 1], [0, 0])
        assert report.average_auc is None

    def test_ties_count_half(self):
        assert rank_auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [], [])

    def test_matches_bruteforce_oracles_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            n_tasks = int(rng.integers(1, 4))
            scores = np.round(rng.random(n), 3)  # rounding provokes ties
            labels = rng.integers(0, 2, size=n)
            tasks = rng.integers(0, n_tasks, size=n)
            if len(set(tasks.tolist())) < 1:
                continue
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                report = compute_metrics(scores, labels, tasks)
            per_task_f1 = {}
            per_task_auc = {}
            for tid in sorted(set(tasks.tolist())):
                mask = tasks == tid
                per_task_f1[tid] = f1_counts_oracle(scores[mask], labels[mask])
                per_task_auc[tid] = pairwise_auc(scores[mask].tolist(), labels[mask].tolist())
            assert report.micro_f1 == micro_f1_oracle(scores, labels, tasks)
            assert report.per_task_f1 == per_task_f1
            assert report.per_task_auc == per_task_auc
            defined = [a for a in per_task_auc.values() if a is not None]
            if defined:
                assert report.average_auc == float(np.mean(defined))


class TestConfigValidation:
    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dropout=1.0)

    def test_rejects_bad_hops(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(hops=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="both")

    def test_rejects_bad_patience(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(patience=0)

    def test_rejects_bad_neighbor_mode(self):
        with pytest.raises(ConfigError, match="neighbor_mode"):
            ExperimentConfig(neighbor_mode="sideways")


class TestSplitsAndQueries:
    def test_split_is_80_10_10(self):
        examples = synthetic_examples(count=40, seed=1)
        split = split_dataset(examples, seed=3)
        assert (len(split.train), len(split.val), len(split.test)) == (32, 4, 4)
        ids = sorted(ex.example_id for part in (split.train, split.val, split.test) for ex in part)
        assert ids == sorted(ex.example_id for ex in examples)

    def test_split_is_seeded(self):
        examples = synthetic_examples(count=30, seed=1)
        a = split_dataset(examples, seed=9)
        b = split_dataset(examples, seed=9)
        assert [e.example_id for e in a.train] == [e.example_id for e in b.train]

    def test_single_mode_queries_are_constant(self):
        queries = build_queries("single", 3)
        for q in queries:
            np.testing.assert_array_equal(q, [1.0])

    def test_multi_mode_queries_are_one_hot(self):
        queries = build_queries("multi", 3)
        stacked = np.stack(queries)
        np.testing.assert_array_equal(stacked, np.eye(3))


@pytest.fixture(scope="module")
def overfit_run():
    """50-example sanity run shared by the loss-decrease and accuracy tests."""
    examples = synthetic_examples(count=50, seed=5)
    split = TaskSplit(train=examples, val=examples, test=examples)
    config = ExperimentConfig(hops=3, memory_size=16, controller_size=16, dropout=0.0,
                              learning_rate=3e-3, batch_size=8, max_epochs=500, patience=30,
                              seed=0, mode="single")
    result = train({"triangles": split}, config)
    queries = build_queries("single", 1)
    pool = prepare_examples(examples, result.model_config, queries)
    scores = predict_scores(result.params, pool, config.hops)
    labels = np.array([ex.label for ex in examples])
    return result, scores, labels


class TestTrainingLoop:
    def test_overfits_small_set(self, overfit_run):
        result, scores, labels = overfit_run
        accuracy = float(((scores >= 0.5).astype(int) == labels).mean())
        assert accuracy >= 0.98
        assert len(result.history) <= 500

    def test_loss_decreases_over_first_ten_epochs(self, overfit_run):
        result, _, _ = overfit_run
        losses = [r.train_loss for r in result.history[:10]]
        non_improving = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert non_improving <= 3

    def test_early_stop_returns_best_observed(self, overfit_run):
        result, _, _ = overfit_run
        observed = [r.val_average_auc for r in result.history if r.val_average_auc is not None]
        assert result.best_val_metric == max(observed)

    def test_epoch_pool_uses_every_example_once(self):
        examples_a = synthetic_examples(count=20, seed=2)
        examples_b = synthetic_examples(count=14, seed=3, motif="triangle:2")
        for ex in examples_b:
            ex.task_id = 1
        sizes = {0: 20, 1: 14}
        order = np.random.default_rng((0, 7919, 1)).permutation(34)
        pool = examples_a + examples_b
        seen = {0: 0, 1: 0}
        for start in range(0, 34, 8):
            for idx in order[start : start + 8]:
                seen[pool[idx].task_id] += 1
        assert seen == sizes

    def test_identical_seeds_identical_metrics(self):
        examples = synthetic_examples(count=30, seed=8)
        split = split_dataset(examples, seed=1)
        config = ExperimentConfig(hops=2, memory_size=8, controller_size=8, dropout=0.2,
                                  learning_rate=3e-3, batch_size=8, max_epochs=4, patience=10,
                                  seed=4, mode="single")
        a = train({"t": split}, config)
        b = train({"t": split}, config)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]

    def test_learned_neighbor_mode_trains(self):
        examples = synthetic_examples(count=20, seed=14)
        split = split_dataset(examples, seed=2)
        config = ExperimentConfig(hops=2, memory_size=8, controller_size=8, dropout=0.0,
                                  learning_rate=3e-3, batch_size=8, max_epochs=2, patience=5,
                                  seed=1, mode="single", neighbor_mode="learned")
        result = train({"t": split}, config)
        assert result.model_config.neighbor_mode == "learned"
        assert "nbr.score" in result.params.names()
        assert len(result.history) == 2

    def test_multi_with_one_task_equals_single(self):
        examples = synthetic_examples(count=30, seed=12)
        split = split_dataset(examples, seed=1)
        base = dict(hops=2, memory_size=8, controller_size=8, dropout=0.0,
                    learning_rate=3e-3, batch_size=8, max_epochs=3, patience=10, seed=6)
        single = train({"t": split}, ExperimentConfig(mode="single", **base))
        multi = train({"t": split}, ExperimentConfig(mode="multi", **base))
        assert single.metrics.to_dict() == multi.metrics.to_dict()

    def test_non_finite_validation_score_aborts(self):
        from graphmem.molgraph import LabeledExample, MolecularGraph

        examples = synthetic_examples(count=20, seed=15)
        g = examples[0].graph
        poisoned = MolecularGraph(
            nodes=g.nodes, edges=g.edges, n_relations=g.n_relations, neighbors=g.neighbors,
            node_features=np.full_like(g.node_features, np.nan), element_slots=g.element_slots,
        )
        val = examples[10:] + [LabeledExample(graph=poisoned, task_id=0, label=1, example_id="nan")]
        split = TaskSplit(train=examples[:10], val=val, test=examples[10:])
        config = ExperimentConfig(hops=2, memory_size=8, controller_size=8, dropout=0.0,
                                  batch_size=8, max_epochs=3, patience=5, seed=1)
        with pytest.raises(NumericError, match="not finite"):
            train({"t": split}, config)

    def test_predict_scores_records_no_tape(self, monkeypatch):
        import graphmem.training as training_module
        from graphmem.model import ModelParams

        examples = synthetic_examples(count=12, seed=16)
        config = ExperimentConfig(hops=2, memory_size=8, controller_size=8, mode="single")
        model_config = derive_model_config(examples, config, 1)
        params = ModelParams.initialize(model_config, seed=2)
        pool = prepare_examples(examples, model_config, build_queries("single", 1))
        results = []
        real_forward = training_module.forward

        def recording_forward(*args, **kwargs):
            results.append(real_forward(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(training_module, "forward", recording_forward)
        scores = predict_scores(params, pool, config.hops)
        assert scores.shape == (12,) and len(results) >= 1
        assert all(t.grad is None for t in params.tensors.values())
        for result in results:
            tensors = [result.probability] + [t for s in result.states
                                              for t in (s.controller, s.memory, s.read, s.attention)
                                              if t is not None]
            assert all(t._parents == () and t._backward is None for t in tensors)

    def test_empty_split_rejected(self):
        examples = synthetic_examples(count=10, seed=1)
        split = TaskSplit(train=examples, val=[], test=examples)
        with pytest.raises(Exception, match="empty"):
            train({"t": split}, ExperimentConfig(max_epochs=1))

    def test_task_id_outside_roster_rejected(self):
        examples = synthetic_examples(count=10, seed=1)
        for ex in examples:
            ex.task_id = 3
        split = TaskSplit(train=examples, val=examples, test=examples)
        with pytest.raises(Exception, match="roster"):
            train({"t": split}, ExperimentConfig(max_epochs=1))

    def test_atomless_graph_rejected_at_validation(self):
        from graphmem.molgraph import LabeledExample, MolecularGraph

        empty = featurize(MolecularGraph.from_bonds([], [], 1), SYNTHETIC_ALPHABET)
        examples = [LabeledExample(graph=empty, task_id=0, label=1, example_id="0")] * 4
        split = TaskSplit(train=examples, val=examples, test=examples)
        with pytest.raises(Exception, match="no atoms"):
            train({"t": split}, ExperimentConfig(max_epochs=1, hops=1))

    def test_unfeaturized_examples_rejected(self):
        spec = SyntheticSpec(nodes_min=4, nodes_max=6, relations=1, motif="triangle:1",
                             balance=0.5, count=10)
        examples = generate_synthetic(spec, seed=0)
        split = TaskSplit(train=examples, val=examples, test=examples)
        with pytest.raises(Exception, match="featurized"):
            train({"t": split}, ExperimentConfig(max_epochs=1))
