"""Architecture behavior: initialization, attention, gated updates, and the
whole-forward invariants (equivariance, locality, reduction to mean passing)."""

import math

import numpy as np
import pytest

from graphmem.model import (
    NEIGHBOR_MODES,
    HopState,
    ModelConfig,
    ModelParams,
    attentive_read,
    controller_step,
    forward,
    init_state,
    memory_step,
    pack,
    prepare_graph,
)
from graphmem.molgraph import (
    SYNTHETIC_ALPHABET,
    MolecularGraph,
    featurize,
    link_feature_dim,
    node_feature_dim,
    random_graph,
)
from graphmem.numerics import DimensionError, Tensor

from _oracles import bfs_distances, learned_memory_step_oracle, mean_passing_oracle

K_X = node_feature_dim(SYNTHETIC_ALPHABET)


def small_config(n_relations=1, memory=4, controller=4, query=1, **kw) -> ModelConfig:
    return ModelConfig(
        node_feat_dim=K_X,
        link_feat_dim=link_feature_dim(n_relations),
        n_relations=n_relations,
        query_dim=query,
        memory_size=memory,
        controller_size=controller,
        **kw,
    )


def make_params(config: ModelConfig, seed=0, **overrides) -> ModelParams:
    params = ModelParams.initialize(config, seed)
    for name, value in overrides.items():
        params[name.replace("__", ".")].data[...] = value
    return params


def line_graph(n: int, relation=1, n_relations=1) -> MolecularGraph:
    bonds = [(k, k + 1, relation) for k in range(n - 1)]
    g = MolecularGraph.from_bonds([SYNTHETIC_ALPHABET[k % 4] for k in range(n)], bonds, n_relations)
    return featurize(g, SYNTHETIC_ALPHABET)


def sample_graph(rng, n_relations=2, n_max=8) -> MolecularGraph:
    return featurize(random_graph(rng, 3, n_max, n_relations), SYNTHETIC_ALPHABET)


class TestInitState:
    def test_identity_readin_recovers_one_hot_query(self):
        cfg = small_config(query=3, controller=3)
        params = make_params(cfg, query_in__weight=np.eye(3), query_in__bias=np.zeros(3))
        prepared = prepare_graph(line_graph(3), cfg)
        state = init_state(prepared, np.array([0.0, 0.0, 1.0]), params)
        np.testing.assert_array_equal(state.controller.data, [[0.0, 0.0, 1.0]])
        assert state.t == 0

    def test_zero_features_zero_bias_gives_zero_cells(self):
        cfg = small_config()
        params = make_params(cfg, embed__bias=np.zeros(cfg.memory_size))
        graph = line_graph(3)
        zeroed = MolecularGraph(
            nodes=graph.nodes, edges=graph.edges, n_relations=graph.n_relations,
            neighbors=graph.neighbors, node_features=np.zeros_like(graph.node_features),
            element_slots=graph.element_slots,
        )
        state = init_state(prepare_graph(zeroed, cfg), np.ones(1), params)
        np.testing.assert_array_equal(state.memory.data, np.zeros((3, cfg.memory_size)))

    def test_cell_depends_only_on_its_own_features(self):
        rng = np.random.default_rng(5)
        cfg = small_config(n_relations=2)
        params = make_params(cfg, seed=3)
        graph = sample_graph(rng, n_relations=2, n_max=4)
        base = init_state(prepare_graph(graph, cfg), np.ones(1), params).memory.data
        perturbed_features = graph.node_features.copy()
        perturbed_features[1] += 0.7
        poked = MolecularGraph(
            nodes=graph.nodes, edges=graph.edges, n_relations=graph.n_relations,
            neighbors=graph.neighbors, node_features=perturbed_features,
            element_slots=graph.element_slots,
        )
        after = init_state(prepare_graph(poked, cfg), np.ones(1), params).memory.data
        for i in range(graph.n_nodes):
            if i == 1:
                assert not np.array_equal(after[i], base[i])
            else:
                np.testing.assert_array_equal(after[i], base[i])

    def test_query_length_checked(self):
        cfg = small_config(query=2)
        params = make_params(cfg)
        with pytest.raises(DimensionError, match="query"):
            init_state(prepare_graph(line_graph(2), cfg), np.ones(3), params)

    def test_feature_width_checked(self):
        cfg = small_config()
        bad = featurize(random_graph(np.random.default_rng(0), 3, 5, 1), ("C", "N"))
        with pytest.raises(DimensionError, match="embedding expects"):
            prepare_graph(bad, cfg)


class TestAttentiveRead:
    def test_identical_cells_get_uniform_weights(self):
        cfg = small_config(memory=3, controller=3)
        params = make_params(cfg, seed=1)
        memory = np.tile([0.3, -0.2, 0.5], (4, 1))
        state = HopState(t=0, controller=Tensor(np.array([[0.1, 0.2, 0.3]])), memory=Tensor(memory))
        read, weights, _ = attentive_read(state, params)
        np.testing.assert_allclose(weights.data, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(read.data, memory[:1], atol=1e-15)

    def test_single_cell_is_certain(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(cfg, seed=2)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.array([[1.0, 2.0]])))
        read, weights, _ = attentive_read(state, params)
        np.testing.assert_array_equal(weights.data, [1.0])
        np.testing.assert_array_equal(read.data, [[1.0, 2.0]])

    def test_two_cells_match_hand_evaluation(self):
        cfg = small_config(memory=2, controller=2)
        w_cell = np.array([[0.2, -0.3], [0.1, 0.4]])
        w_ctrl = np.array([[-0.1, 0.2], [0.3, 0.1]])
        bias = np.array([0.01, -0.02])
        score = np.array([0.7, -0.5])
        params = make_params(cfg, attn__cell=w_cell, attn__ctrl=w_ctrl, attn__bias=bias,
                             attn__score=score)
        cells = np.array([[0.1, -0.2], [0.3, 0.4]])
        h = np.array([0.5, -0.1])
        state = HopState(t=0, controller=Tensor(h[None]), memory=Tensor(cells))

        # independent arithmetic, straight from the definitions
        blend = [np.tanh(w_cell @ cells[i] + w_ctrl @ h + bias) for i in range(2)]
        raw = [float(score @ a) for a in blend]
        exp = [math.exp(v - max(raw)) for v in raw]
        expected_weights = np.array(exp) / sum(exp)
        expected_read = expected_weights[0] * cells[0] + expected_weights[1] * cells[1]

        read, weights, scores = attentive_read(state, params)
        np.testing.assert_allclose(weights.data, expected_weights, atol=1e-14)
        np.testing.assert_allclose(read.data, [expected_read], atol=1e-14)
        np.testing.assert_allclose(scores.data, raw, atol=1e-14)

    def test_empty_memory_rejected(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(cfg)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.zeros((0, 2))))
        with pytest.raises(ValueError, match="empty memory"):
            attentive_read(state, params)


class TestControllerStep:
    def test_closed_gate_keeps_previous_state(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(
            cfg,
            ctrl_gate__self=np.zeros((2, 2)), ctrl_gate__read=np.zeros((2, 2)),
            ctrl_gate__bias=np.full(2, -1000.0),
        )
        h = np.array([0.4, -0.7])
        state = HopState(t=0, controller=Tensor(h[None]), memory=Tensor(np.zeros((1, 2))))
        out = controller_step(state, Tensor(np.array([[1.0, 2.0]])), params)
        np.testing.assert_array_equal(out.data, [h])

    def test_open_gate_zero_weights_zeroes_state(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(
            cfg,
            ctrl__self=np.zeros((2, 2)), ctrl__read=np.zeros((2, 2)), ctrl__bias=np.zeros(2),
            ctrl_gate__self=np.zeros((2, 2)), ctrl_gate__read=np.zeros((2, 2)),
            ctrl_gate__bias=np.full(2, 1000.0),
        )
        state = HopState(t=0, controller=Tensor(np.array([[0.4, -0.7]])), memory=Tensor(np.zeros((1, 2))))
        out = controller_step(state, Tensor(np.array([[1.0, 2.0]])), params)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_two_dim_hand_evaluation(self):
        cfg = small_config(memory=2, controller=2)
        w_self = np.array([[0.3, -0.1], [0.2, 0.5]])
        w_read = np.array([[-0.4, 0.2], [0.1, -0.3]])
        b = np.array([0.05, -0.05])
        g_self = np.array([[0.1, 0.2], [-0.2, 0.3]])
        g_read = np.array([[0.4, -0.1], [0.0, 0.2]])
        g_bias = np.array([-0.1, 0.3])
        params = make_params(cfg, ctrl__self=w_self, ctrl__read=w_read, ctrl__bias=b,
                             ctrl_gate__self=g_self, ctrl_gate__read=g_read, ctrl_gate__bias=g_bias)
        h = np.array([0.6, -0.2])
        read = np.array([0.3, 0.9])
        proposal = np.maximum(w_self @ h + w_read @ read + b, 0.0)
        gate = 1.0 / (1.0 + np.exp(-(g_self @ h + g_read @ read + g_bias)))
        expected = gate * proposal + (1.0 - gate) * h

        state = HopState(t=0, controller=Tensor(h[None]), memory=Tensor(np.zeros((1, 2))))
        out = controller_step(state, Tensor(read[None]), params)
        np.testing.assert_allclose(out.data, [expected], atol=1e-15)


def mean_passing_params(cfg: ModelConfig) -> ModelParams:
    """The constrained setting where one memory hop is exactly uniform
    neighbor averaging: no self/controller terms, relation weight [I | 0],
    gate saturated fully open."""
    k_m, k_b = cfg.memory_size, cfg.link_feat_dim
    v_r = np.concatenate([np.eye(k_m), np.zeros((k_m, k_b))], axis=1)
    return make_params(
        cfg,
        mem__self=np.zeros((k_m, k_m)),
        mem__ctrl=np.zeros((k_m, cfg.controller_size)),
        mem__bias=np.zeros(k_m),
        mem__rel0=v_r,
        mem_gate__self=np.zeros((k_m, k_m)),
        mem_gate__ctrl=np.zeros((k_m, cfg.controller_size)),
        mem_gate__rel0=np.zeros((k_m, k_m + k_b)),
        mem_gate__bias=np.full(k_m, 1000.0),
    )


class TestMemoryStep:
    def test_isolated_node_becomes_relu_of_bias(self):
        for mode in NEIGHBOR_MODES:
            cfg = small_config(memory=3, controller=2, neighbor_mode=mode)
            bias = np.array([0.5, -0.7, 0.0])
            params = mean_passing_params(cfg)
            params["mem.bias"].data[...] = bias
            graph = featurize(MolecularGraph.from_bonds(["A"], [], 1), SYNTHETIC_ALPHABET)
            prepared = prepare_graph(graph, cfg)
            state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.array([[9.0, 9.0, 9.0]])))
            memory, contexts = memory_step(state, Tensor(np.zeros((1, 2))), params, prepared)
            np.testing.assert_array_equal(memory.data, [[0.5, 0.0, 0.0]], err_msg=mode)
            np.testing.assert_array_equal(contexts[0].data, np.zeros((1, 3 + cfg.link_feat_dim)), err_msg=mode)

    def test_constrained_step_is_uniform_neighbor_mean(self):
        rng = np.random.default_rng(17)
        cfg = small_config(memory=4, controller=3)
        params = mean_passing_params(cfg)
        graph_bonds = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1), (2, 4, 1)]
        graph = featurize(MolecularGraph.from_bonds(["A"] * 5, graph_bonds, 1), SYNTHETIC_ALPHABET)
        prepared = prepare_graph(graph, cfg)
        cells = rng.uniform(0.0, 1.0, size=(5, 4))
        state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
        memory, _ = memory_step(state, Tensor(np.zeros((1, 3))), params, prepared)
        expected = mean_passing_oracle(graph.neighbors[0], cells, hops=1)
        np.testing.assert_allclose(memory.data, expected, atol=1e-12)

    def test_learned_step_matches_loop_oracle(self):
        # relation 1: a star around node 1 (node 0 has one neighbor); relation 2:
        # a path 2-3-4; node 5 has no neighbor under either relation
        bonds = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 2), (3, 4, 2)]
        graph = featurize(MolecularGraph.from_bonds(["A", "B", "D", "E", "A", "B"], bonds, 2),
                          SYNTHETIC_ALPHABET)
        cfg = small_config(n_relations=2, memory=5, controller=3, neighbor_mode="learned")
        params = make_params(cfg, seed=31)
        rng = np.random.default_rng(32)
        for name in ("nbr.score", "nbr.bias", "mem.bias", "mem_gate.bias"):
            params[name].data[...] = rng.normal(size=params[name].data.shape)
        cells = rng.normal(size=(graph.n_nodes, 5))
        ctrl = rng.normal(size=3)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
        memory, contexts = memory_step(state, Tensor(ctrl[None]), params, prepare_graph(graph, cfg))
        expected, expected_contexts = learned_memory_step_oracle(graph, params.arrays(), cells, ctrl)
        np.testing.assert_allclose(memory.data, expected, rtol=0, atol=1e-12)
        for r in range(2):
            np.testing.assert_allclose(contexts[r].data, expected_contexts[r], rtol=0, atol=1e-12)
        assert not np.any(expected_contexts[0][5]) and not np.any(expected_contexts[1][5])

    def test_closed_gate_keeps_memory_for_the_hop(self):
        cfg = small_config(memory=4, controller=3, n_relations=2)
        params = make_params(
            cfg, seed=9,
            mem_gate__self=np.zeros((4, 4)),
            mem_gate__ctrl=np.zeros((4, 3)),
            mem_gate__rel0=np.zeros((4, 4 + cfg.link_feat_dim)),
            mem_gate__rel1=np.zeros((4, 4 + cfg.link_feat_dim)),
            mem_gate__bias=np.full(4, -1000.0),
        )
        graph = sample_graph(np.random.default_rng(3), n_relations=2, n_max=6)
        prepared = prepare_graph(graph, cfg)
        cells = np.random.default_rng(4).normal(size=(graph.n_nodes, 4))
        state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
        memory, _ = memory_step(state, Tensor(np.ones((1, 3))), params, prepared)
        np.testing.assert_array_equal(memory.data, cells)


class TestForward:
    def test_single_cell_attention_is_always_one(self):
        cfg = small_config(memory=3, controller=3)
        params = make_params(cfg, seed=11)
        graph = featurize(MolecularGraph.from_bonds(["A"], [], 1), SYNTHETIC_ALPHABET)
        result = forward(graph, np.ones(1), params, hops=4)
        for trace in result.attention_trace():
            assert trace == [1.0]

    def test_frozen_gates_make_hops_inert(self):
        cfg = small_config(n_relations=2, memory=4, controller=4)
        frozen = dict(
            ctrl_gate__self=np.zeros((4, 4)), ctrl_gate__read=np.zeros((4, 4)),
            ctrl_gate__bias=np.full(4, -1000.0),
            mem_gate__self=np.zeros((4, 4)), mem_gate__ctrl=np.zeros((4, 4)),
            mem_gate__rel0=np.zeros((4, 4 + cfg.link_feat_dim)),
            mem_gate__rel1=np.zeros((4, 4 + cfg.link_feat_dim)),
            mem_gate__bias=np.full(4, -1000.0),
        )
        params = make_params(cfg, seed=13, **frozen)
        graph = sample_graph(np.random.default_rng(2), n_relations=2)
        probs = [forward(graph, np.ones(1), params, hops=t).probability.item() for t in (1, 3, 6)]
        assert probs[0] == probs[1] == probs[2]

    def test_bitwise_deterministic(self):
        cfg = small_config(n_relations=2)
        params = make_params(cfg, seed=21)
        graph = sample_graph(np.random.default_rng(8), n_relations=2)
        a = forward(graph, np.ones(1), params, hops=3).probability.item()
        b = forward(graph, np.ones(1), params, hops=3).probability.item()
        assert a == b

    def test_training_dropout_is_seeded(self):
        cfg = small_config(n_relations=2)
        params = make_params(cfg, seed=21)
        graph = sample_graph(np.random.default_rng(8), n_relations=2)
        a = forward(graph, np.ones(1), params, hops=3, dropout_rate=0.4,
                    rng=np.random.default_rng(77), training=True).probability.item()
        b = forward(graph, np.ones(1), params, hops=3, dropout_rate=0.4,
                    rng=np.random.default_rng(77), training=True).probability.item()
        assert a == b
        # in a mixed pack each graph draws its masks from its own generator, so its
        # probability matches its pack of one
        for mode in NEIGHBOR_MODES:
            cfg = small_config(n_relations=2, query=2, neighbor_mode=mode)
            params = make_params(cfg, seed=22)
            rng = np.random.default_rng(23)
            for name in ("attn.score", "nbr.score"):
                if name in params.tensors:
                    params[name].data[...] = rng.normal(size=cfg.controller_size)
            graphs = [sample_graph(rng, n_relations=2) for _ in range(4)]
            graphs.insert(2, featurize(MolecularGraph.from_bonds(["A"], [], 2), SYNTHETIC_ALPHABET))
            prepared = [prepare_graph(g, cfg) for g in graphs]
            queries = np.eye(2)[rng.integers(0, 2, size=len(graphs))]
            alone = [forward(p, q, params, hops=3, dropout_rate=0.4, rng=np.random.default_rng(50 + k),
                             training=True).probability.item()
                     for k, (p, q) in enumerate(zip(prepared, queries))]
            packed = forward(pack(prepared), queries, params, hops=3, dropout_rate=0.4,
                             rng=[np.random.default_rng(50 + k) for k in range(len(graphs))],
                             training=True).probability.data.ravel()
            np.testing.assert_allclose(packed, alone, rtol=0, atol=1e-12, err_msg=mode)

    def test_hops_must_be_positive(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ValueError, match="hops"):
            forward(line_graph(3), np.ones(1), params, hops=0)

    def test_learned_neighbor_mode_runs_and_normalizes(self):
        cfg = small_config(n_relations=2, neighbor_mode="learned")
        params = make_params(cfg, seed=5)
        params["nbr.score"].data[...] = np.random.default_rng(0).normal(size=cfg.controller_size)
        graph = sample_graph(np.random.default_rng(9), n_relations=2)
        result = forward(graph, np.ones(1), params, hops=2)
        assert 0.0 < result.probability.item() < 1.0


def permute_graph(graph: MolecularGraph, perm: np.ndarray) -> MolecularGraph:
    """Relabel nodes: new index of old node i is perm[i]."""
    symbols = [""] * graph.n_nodes
    for old, node in enumerate(graph.nodes):
        symbols[perm[old]] = node.symbol
    bonds = [(int(perm[e.i]), int(perm[e.j]), e.relation) for e in graph.edges]
    return featurize(MolecularGraph.from_bonds(symbols, bonds, graph.n_relations), SYNTHETIC_ALPHABET)


class TestInvariants:
    def test_attention_normalized_every_hop(self):
        rng = np.random.default_rng(100)
        cfg = small_config(n_relations=3)
        for trial in range(30):
            params = make_params(cfg, seed=trial)
            params["attn.score"].data[...] = rng.normal(size=cfg.controller_size)
            graph = sample_graph(rng, n_relations=3)
            result = forward(graph, np.ones(1), params, hops=3)
            for state in result.states[1:]:
                assert abs(state.attention.data.sum() - 1.0) <= 1e-9

    def test_permutation_equivariance(self):
        for mode in NEIGHBOR_MODES:
            rng = np.random.default_rng(200)
            cfg = small_config(n_relations=2, memory=6, controller=6, neighbor_mode=mode)
            for trial in range(20):
                params = make_params(cfg, seed=1000 + trial)
                params["attn.score"].data[...] = rng.normal(size=cfg.controller_size)
                if mode == "learned":
                    params["nbr.score"].data[...] = rng.normal(size=cfg.controller_size)
                graph = sample_graph(rng, n_relations=2)
                perm = rng.permutation(graph.n_nodes)
                permuted = permute_graph(graph, perm)
                base = forward(graph, np.ones(1), params, hops=3)
                other = forward(permuted, np.ones(1), params, hops=3)
                assert abs(base.probability.item() - other.probability.item()) <= 1e-9, mode
                for s_base, s_other in zip(base.states, other.states):
                    np.testing.assert_allclose(
                        s_other.memory.data[perm], s_base.memory.data, atol=1e-9, err_msg=mode
                    )
                    if s_base.attention is not None:
                        np.testing.assert_allclose(
                            s_other.attention.data[perm], s_base.attention.data, atol=1e-9, err_msg=mode
                        )
            # reordering the graphs of a pack reorders its outputs
            graphs = [prepare_graph(sample_graph(rng, n_relations=2), cfg) for _ in range(5)]
            order = rng.permutation(len(graphs))
            base = forward(pack(graphs), np.ones(1), params, hops=3)
            other = forward(pack([graphs[k] for k in order]), np.ones(1), params, hops=3)
            np.testing.assert_allclose(other.probability.data, base.probability.data[order],
                                       atol=1e-9, err_msg=mode)
            bounds = pack(graphs).bounds
            rows = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in order])
            for s_base, s_other in zip(base.states, other.states):
                np.testing.assert_allclose(s_other.memory.data, s_base.memory.data[rows], atol=1e-9,
                                           err_msg=mode)
                if s_base.attention is not None:
                    np.testing.assert_allclose(s_other.attention.data, s_base.attention.data[rows],
                                               atol=1e-9, err_msg=mode)

    def test_read_vector_in_cell_coordinate_hull(self):
        rng = np.random.default_rng(300)
        cfg = small_config(n_relations=2)
        for trial in range(20):
            params = make_params(cfg, seed=trial)
            params["attn.score"].data[...] = rng.normal(size=cfg.controller_size)
            graph = sample_graph(rng, n_relations=2)
            result = forward(graph, np.ones(1), params, hops=3)
            for previous, state in zip(result.states, result.states[1:]):
                cells = previous.memory.data
                low = cells.min(axis=0) - 1e-12
                high = cells.max(axis=0) + 1e-12
                assert np.all(state.read.data >= low)
                assert np.all(state.read.data <= high)

    def test_reduction_to_mean_message_passing(self):
        rng = np.random.default_rng(400)
        cfg = small_config(memory=4, controller=3)
        params = mean_passing_params(cfg)
        for _ in range(10):
            graph = sample_graph(rng, n_relations=1, n_max=6)
            prepared = prepare_graph(graph, cfg)
            cells = rng.uniform(0.0, 1.0, size=(graph.n_nodes, 4))
            for hops in (1, 2, 3):
                state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
                for _hop in range(hops):
                    memory, _ = memory_step(state, Tensor(np.zeros((1, 3))), params, prepared)
                    state = HopState(t=state.t + 1, controller=state.controller, memory=memory)
                expected = mean_passing_oracle(graph.neighbors[0], cells, hops=hops)
                np.testing.assert_allclose(state.memory.data, expected, atol=1e-12)

    def test_receptive_field_grows_one_hop_per_step(self):
        cfg = small_config(memory=4, controller=4)
        cut = dict(
            mem__ctrl=np.zeros((4, 4)),
            mem_gate__ctrl=np.zeros((4, 4)),
        )
        params = make_params(cfg, seed=5, **cut)
        graph = line_graph(5)
        poked_features = graph.node_features.copy()
        poked_features[4] += 0.9
        poked = MolecularGraph(
            nodes=graph.nodes, edges=graph.edges, n_relations=graph.n_relations,
            neighbors=graph.neighbors, node_features=poked_features,
            element_slots=graph.element_slots,
        )
        distance = bfs_distances([graph.neighbor_union(i) for i in range(5)], source=4)
        base = forward(graph, np.ones(1), params, hops=3)
        after = forward(poked, np.ones(1), params, hops=3)
        for t in range(0, 4):
            base_memory = base.states[t].memory.data
            after_memory = after.states[t].memory.data
            for i in range(5):
                if distance[i] > t:
                    np.testing.assert_array_equal(after_memory[i], base_memory[i])
            assert not np.array_equal(after_memory[4], base_memory[4])

    def test_query_flips_initial_controller_state(self):
        cfg = small_config(query=3, controller=8)
        params = make_params(cfg, seed=123)
        prepared = prepare_graph(line_graph(4), cfg)
        q_a, q_b = np.zeros(3), np.zeros(3)
        q_a[0] = 1.0
        q_b[2] = 1.0
        state_a = init_state(prepared, q_a, params)
        state_b = init_state(prepared, q_b, params)
        assert not np.array_equal(params["query_in.weight"].data[:, 0],
                                  params["query_in.weight"].data[:, 2])
        assert not np.array_equal(state_a.controller.data, state_b.controller.data)
