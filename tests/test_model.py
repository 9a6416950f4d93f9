"""Architecture behavior: initialization, attention, gated updates, and the
whole-forward invariants (equivariance, locality, reduction to mean passing)."""

import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from graphmem.model import (
    NEIGHBOR_MODES,
    HopState,
    ModelConfig,
    ModelParams,
    _memory_bias,
    _neighbor_weights,
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
from graphmem.numerics import (DimensionError, Neighbours, Slots, Tensor, binary_cross_entropy,
                               finite_difference_gradient, graph_sum, linear_sum, link_sum, max_relative_error)

from _oracles import (
    bfs_distances,
    block_layout_oracle,
    concatenated_pack,
    edge_sum,
    featurize_oracle,
    gather_sum,
    graph_record,
    keyed_attentive_read,
    keyed_forward,
    keyed_link_sum,
    keyed_memory_bias,
    keyed_memory_step,
    kept_sums_memory_step,
    learned_memory_step_oracle,
    masked_block_ring_sum,
    mean_links_bias_oracle,
    mean_passing_oracle,
    neighbor_lists,
    neighbor_union,
    live_link_columns,
    param_blocks,
    per_block_initialize_oracle,
    per_relation_memory_step_oracle,
    prepare_graph_oracle,
    wide_link,
    wide_link_params,
)

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
    """Seeded parameters with some blocks overridden, named per block with
    ``__`` for the dot (see :func:`param_blocks`)."""
    params = ModelParams.initialize(config, seed)
    blocks = param_blocks(params.arrays())
    for name, value in overrides.items():
        blocks[name.replace("__", ".")][...] = value
    return params


def pack_of_one(n_cells: int, cfg: ModelConfig):
    """A prepared graph of ``n_cells`` unbonded atoms: one graph's memory."""
    graph = MolecularGraph.from_bonds(["A"] * n_cells, [], cfg.n_relations)
    return prepare_graph(featurize(graph, SYNTHETIC_ALPHABET), cfg)


def line_graph(n: int, relation=1, n_relations=1) -> MolecularGraph:
    bonds = [(k, k + 1, relation) for k in range(n - 1)]
    g = MolecularGraph.from_bonds([SYNTHETIC_ALPHABET[k % 4] for k in range(n)], bonds, n_relations)
    return featurize(g, SYNTHETIC_ALPHABET)


def sample_graph(rng, n_relations=2, n_max=8) -> MolecularGraph:
    return featurize(random_graph(rng, 3, n_max, n_relations), SYNTHETIC_ALPHABET)


def with_slot(graph: MolecularGraph, atom: int, slot: int) -> MolecularGraph:
    """The featurized graph with one atom's element slot changed."""
    slots = graph.element_slots.copy()
    slots[atom] = slot
    return dataclasses.replace(graph, element_slots=slots)


class TestInitialize:
    @pytest.mark.parametrize("memory_as_wide_as_features", [False, True])
    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    @pytest.mark.parametrize("n_relations", [1, 3, 4])
    def test_stacked_blocks_equal_the_per_block_oracle(self, n_relations, mode, memory_as_wide_as_features):
        # k_m, k_h and k_b differ, so that a swapped block or a limit taken
        # over the stacked shape changes some value; at k_m = k_x the
        # embedding is square, so a transposed draw keeps its shape
        k_m = K_X if memory_as_wide_as_features else 6
        cfg = small_config(n_relations=n_relations, memory=k_m, controller=3, query=2, neighbor_mode=mode)
        assert len({cfg.memory_size, cfg.controller_size, cfg.link_feat_dim}) == 3
        # relation r's block keeps, of its link columns, the one-hot column
        # r and the ring column: the others are drawn, and then dropped
        for seed in (0, 7):
            arrays = ModelParams.initialize(cfg, seed).arrays()
            blocks = param_blocks(arrays)
            expected = per_block_initialize_oracle(cfg, seed)
            assert set(blocks) == set(expected)
            for name, value in expected.items():
                if ".rel" in name:
                    r = int(name[-1])
                    dead = [k_m + c for c in range(n_relations) if c != r]
                    assert value[:, dead].all(), name
                    value = value.copy()
                    value[:, dead] = 0.0
                np.testing.assert_array_equal(np.asarray(blocks[name]), value, err_msg=name, strict=True)
            # the blocks tile the stacked arrays: no entry is left over but
            # the R - 1 dead link columns of each of the 2R blocks
            dropped = 2 * n_relations * k_m * (n_relations - 1)
            assert sum(a.size for a in arrays.values()) == sum(v.size for v in expected.values()) - dropped
        assert {"embed.weight", "ctrl.gated.self", "mem.gated.nbr"} <= set(arrays)
        assert arrays["mem.gated.nbr"].shape == (2 * k_m, n_relations * k_m)
        assert arrays["mem.gated.link"].shape == (2 * k_m, 2 * n_relations)

    def test_load_arrays_refuses_a_missing_extra_or_misshapen_parameter(self):
        # and copies nothing then
        params = ModelParams.initialize(small_config(), 0)
        before = params.copy_arrays()
        other = ModelParams.initialize(small_config(), 1).copy_arrays()
        weight = other.pop("out.weight")
        for arrays, message in ((other, "lacks parameter 'out.weight'"),
                                ({**other, "out.weight": weight, "extra": weight},
                                 "holds parameter 'extra', which the model does not have"),
                                ({**other, "out.weight": weight[:, :-1]},
                                 re.escape(f"holds parameter 'out.weight' of shape {weight[:, :-1].shape}, "
                                           f"but the model needs {weight.shape}"))):
            with pytest.raises(ValueError, match=message):
                params.load_arrays(arrays)
            for name, value in before.items():
                np.testing.assert_array_equal(params[name].data, value, strict=True)
        params.load_arrays({**other, "out.weight": weight})
        np.testing.assert_array_equal(params["out.weight"].data, weight, strict=True)


class TestInitState:
    def test_identity_readin_recovers_one_hot_query(self):
        cfg = small_config(query=3, controller=3)
        params = make_params(cfg, query_in__weight=np.eye(3), query_in__bias=np.zeros(3))
        prepared = prepare_graph(line_graph(3), cfg)
        state = init_state(prepared, np.array([0.0, 0.0, 1.0]), params)
        np.testing.assert_array_equal(state.controller.data, [[0.0, 0.0, 1.0]])
        assert state.t == 0

    def test_zero_features_zero_bias_gives_zero_cells(self):
        # an atom reaches its cell only through its one-hot columns: with
        # those columns of the embedding zero and no bias, every cell is zero
        # until one atom's element slot moves onto the one live column, the
        # slot of E, which no atom of the graph holds
        cfg = small_config()
        live = np.zeros((cfg.memory_size, K_X))
        live[:, SYNTHETIC_ALPHABET.index("E")] = 1.0
        params = make_params(cfg, embed__weight=live, embed__bias=np.zeros(cfg.memory_size))
        graph = line_graph(3)
        assert "E" not in graph.symbols
        state = init_state(prepare_graph(graph, cfg), np.ones(1), params)
        np.testing.assert_array_equal(state.memory.data, np.zeros((3, cfg.memory_size)))
        moved = with_slot(graph, 1, SYNTHETIC_ALPHABET.index("E"))
        state = init_state(prepare_graph(moved, cfg), np.ones(1), params)
        np.testing.assert_array_equal(state.memory.data, [[0.0] * 4, [1.0] * 4, [0.0] * 4])

    def test_cell_depends_only_on_its_own_features(self):
        rng = np.random.default_rng(5)
        cfg = small_config(n_relations=2)
        params = make_params(cfg, seed=3)
        graph = sample_graph(rng, n_relations=2, n_max=4)
        base = init_state(prepare_graph(graph, cfg), np.ones(1), params).memory.data
        poked = with_slot(graph, 1, (graph.element_slots[1] + 1) % graph.slot_width)
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

    def test_forward_refuses_an_unfeaturized_or_misfit_graph(self):
        # a pack trusts its graphs to fit, so forward checks a graph it packs
        params = make_params(small_config())
        graph = random_graph(np.random.default_rng(0), 3, 5, 1)
        with pytest.raises(ValueError, match="not featurized"):
            forward(graph, np.ones(1), params, 2)
        with pytest.raises(DimensionError, match="embedding expects"):
            forward(featurize(graph, ("C", "N")), np.ones(1), params, 2)
        two_relations = featurize(random_graph(np.random.default_rng(1), 3, 5, 2), SYNTHETIC_ALPHABET)
        with pytest.raises(DimensionError, match="relations"):
            forward(two_relations, np.ones(1), params, 2)

    def test_a_graph_of_fewer_relations_fits_the_link_width(self):
        # the link width follows the model's relations, so a graph that uses
        # fewer runs
        two_relations = featurize(random_graph(np.random.default_rng(1), 3, 5, 2), SYNTHETIC_ALPHABET)
        assert len(two_relations.bonds)
        prepare_graph(two_relations, small_config(n_relations=3))

    def test_a_link_width_the_relations_do_not_fix_is_refused(self):
        # the relation count fixes link_feat_dim: a config naming another
        # width, narrower or wider, is refused as it is built
        for width in (link_feature_dim(1), link_feature_dim(2), link_feature_dim(4), 0):
            with pytest.raises(ValueError, match=rf"link_feat_dim must be 4 \(n_relations \+ 1\), got {width}$"):
                dataclasses.replace(small_config(n_relations=3), link_feat_dim=width)
        with pytest.raises(TypeError, match="link_feat_dim must be an integer"):
            dataclasses.replace(small_config(n_relations=3), link_feat_dim=4.0)


class TestAttentiveRead:
    def test_identical_cells_get_uniform_weights(self):
        cfg = small_config(memory=3, controller=3)
        params = make_params(cfg, seed=1)
        memory = np.tile([0.3, -0.2, 0.5], (4, 1))
        state = HopState(t=0, controller=Tensor(np.array([[0.1, 0.2, 0.3]])), memory=Tensor(memory))
        read, weights, _ = attentive_read(state, params, pack_of_one(4, cfg))
        np.testing.assert_allclose(weights.data, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(read.data, memory[:1], atol=1e-15)

    def test_single_cell_is_certain(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(cfg, seed=2)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.array([[1.0, 2.0]])))
        read, weights, _ = attentive_read(state, params, pack_of_one(1, cfg))
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

        read, weights, scores = attentive_read(state, params, pack_of_one(2, cfg))
        np.testing.assert_allclose(weights.data, expected_weights, atol=1e-14)
        np.testing.assert_allclose(read.data, [expected_read], atol=1e-14)
        np.testing.assert_allclose(scores.data, raw, atol=1e-14)

    def test_read_equals_the_gather_sum_reference(self):
        # the read, a graph_sum over each graph's run of cells, against the
        # edge-by-edge weighted sum from every cell to its graph, to 1e-12
        # (reduceat adds in its own order): on the mixed pack of
        # TestMemoryStep and on a single atom
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3)
        params = make_params(cfg, seed=45)
        rng = np.random.default_rng(46)
        params["attn.score"].data[...] = rng.normal(size=3)
        graphs = TestMemoryStep.mixed_pack_graphs()
        for prepared in (pack(graphs, cfg), prepare_graph(graphs[0], cfg)):
            cells = rng.normal(size=(prepared.n_nodes, 4))
            state = HopState(t=0, controller=Tensor(rng.normal(size=(prepared.n_graphs, 3))), memory=Tensor(cells))
            read, weights, _ = attentive_read(state, params, prepared)
            assert isinstance(read, Tensor) and read.data.shape == (prepared.n_graphs, 4)
            expected = gather_sum(cells, weights.data, np.arange(prepared.n_nodes), prepared.slots.segments,
                                  prepared.n_graphs)
            np.testing.assert_allclose(read.data, expected, rtol=0, atol=1e-12)

    def test_empty_memory_rejected(self):
        cfg = small_config(memory=2, controller=2)
        params = make_params(cfg)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.zeros((0, 2))))
        with pytest.raises(ValueError, match="empty memory"):
            attentive_read(state, params, pack_of_one(0, cfg))


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

    def test_edge_sum_read_matches_a_tensor_read(self):
        # the same update whether the read is the attention's edge_sum or a
        # tracked tensor holding its values: the same output and parameter
        # gradients, and the edge_sum passes the tensor's gradient on to the
        # cells and the attention weights by the chain rule
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3)
        prepared = pack(TestMemoryStep.mixed_pack_graphs(), cfg)
        rng = np.random.default_rng(47)
        cells = rng.normal(size=(prepared.n_nodes, 4))
        controllers = rng.normal(size=(prepared.n_graphs, 3))
        attention = rng.uniform(0.1, 1.0, size=prepared.n_nodes)
        bias = rng.normal(size=6)
        seed = rng.normal(size=(prepared.n_graphs, 3))

        def step(as_tensor: bool):
            params = make_params(cfg, seed=48, ctrl__bias=bias[:3], ctrl_gate__bias=bias[3:])
            memory, weights = Tensor(cells, True), Tensor(attention, True)
            state = HopState(t=0, controller=Tensor(controllers, True), memory=memory)
            read = edge_sum(memory, weights, np.arange(prepared.n_nodes), prepared.slots.segments, prepared.n_graphs, 1)
            if as_tensor:
                read = Tensor(read.data, True)
            out = controller_step(state, read, params)
            out.backward(seed=seed)
            return out.data, params.grads(), state.controller.grad, read, memory.grad, weights.grad

        out, grads, ctrl_grad, _, memory_grad, weights_grad = step(as_tensor=False)
        out_t, grads_t, ctrl_grad_t, read_t, _, _ = step(as_tensor=True)
        np.testing.assert_array_equal(out, out_t)
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_t[name], err_msg=name)
        np.testing.assert_array_equal(ctrl_grad, ctrl_grad_t)
        at_graph = read_t.grad[prepared.slots.segments]
        np.testing.assert_array_equal(memory_grad, attention[:, None] * at_graph)
        np.testing.assert_allclose(weights_grad, (at_graph * cells).sum(axis=1), rtol=1e-14, atol=0)


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
            param_blocks(params.arrays())["mem.bias"][...] = bias
            graph = featurize(MolecularGraph.from_bonds(["A"], [], 1), SYNTHETIC_ALPHABET)
            prepared = prepare_graph(graph, cfg)
            state = HopState(t=0, controller=Tensor(np.zeros((1, 2))), memory=Tensor(np.array([[9.0, 9.0, 9.0]])))
            memory = memory_step(state, Tensor(np.zeros((1, 2))), params, prepared, _memory_bias(params, prepared))
            np.testing.assert_array_equal(memory.data, [[0.5, 0.0, 0.0]], err_msg=mode)
            # no edge, so a zero neighbour sum and zero mean link rows
            assert prepared.slots.src.size == 0
            context = prepared.slots.product(prepared.uniform.data, state.memory.data, 3)
            np.testing.assert_array_equal(context, np.zeros((1, 3)), err_msg=mode)
            links = link_sum(prepared.uniform, prepared.ring, prepared.slots)
            np.testing.assert_array_equal(links.data, np.zeros((1, 2 * cfg.n_relations)), err_msg=mode)

    def test_constrained_step_is_uniform_neighbor_mean(self):
        rng = np.random.default_rng(17)
        cfg = small_config(memory=4, controller=3)
        params = mean_passing_params(cfg)
        graph_bonds = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1), (2, 4, 1)]
        graph = featurize(MolecularGraph.from_bonds(["A"] * 5, graph_bonds, 1), SYNTHETIC_ALPHABET)
        prepared = prepare_graph(graph, cfg)
        cells = rng.uniform(0.0, 1.0, size=(5, 4))
        state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
        memory = memory_step(state, Tensor(np.zeros((1, 3))), params, prepared, _memory_bias(params, prepared))
        expected = mean_passing_oracle(neighbor_lists(graph)[0], cells, hops=1)
        np.testing.assert_allclose(memory.data, expected, atol=1e-12)

    def test_learned_step_matches_loop_oracle(self):
        # relation 1: a star around node 1 (node 0 has one neighbor); relation 2:
        # a path 2-3-4; node 5 has no neighbor under either relation
        bonds = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 2), (3, 4, 2)]
        graph = featurize(MolecularGraph.from_bonds(["A", "B", "D", "E", "A", "B"], bonds, 2),
                          SYNTHETIC_ALPHABET)
        cfg = small_config(n_relations=2, memory=5, controller=3, neighbor_mode="learned")
        params = make_params(cfg, seed=31)
        blocks = param_blocks(params.arrays())
        rng = np.random.default_rng(32)
        for name in ("nbr.score", "nbr.bias", "mem.bias", "mem_gate.bias"):
            blocks[name][...] = rng.normal(size=blocks[name].shape)
        cells = rng.normal(size=(graph.n_nodes, 5))
        ctrl = rng.normal(size=3)
        state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
        prepared = prepare_graph(graph, cfg)
        memory = memory_step(state, Tensor(ctrl[None]), params, prepared, _memory_bias(params, prepared))
        expected, expected_contexts = learned_memory_step_oracle(graph, params.arrays(), cells, ctrl)
        np.testing.assert_allclose(memory.data, expected, rtol=0, atol=1e-12)
        # the contexts the update summed: the learned edge weights of every
        # relation, summing neighbour cells and link rows into one column
        # block per relation, as the memory update's block products and link
        # sums
        weights = _neighbor_weights(prepared, state.memory, params)
        cells = prepared.slots.product(weights.data, state.memory.data, 5)
        links = wide_link(link_sum(weights, prepared.ring, prepared.slots).data, 2)
        for r in range(2):
            np.testing.assert_allclose(cells[:, 5 * r:5 * (r + 1)], expected_contexts[r][:, :5], rtol=0, atol=1e-12)
            np.testing.assert_allclose(links[:, 3 * r:3 * (r + 1)], expected_contexts[r][:, 5:], rtol=0, atol=1e-12)
        assert not np.any(expected_contexts[0][5]) and not np.any(expected_contexts[1][5])

    @staticmethod
    def mixed_pack_graphs():
        """Graphs whose pack covers the edge cases of the keyed edge list, for
        a model of three relations: a single atom,
        atoms without bonds, graphs that use two relations (fewer than the
        model), and no edge under the third relation anywhere."""
        rng = np.random.default_rng(41)
        return [
            featurize(MolecularGraph.from_bonds(["A"], [], 1), SYNTHETIC_ALPHABET),
            sample_graph(rng, n_relations=2, n_max=7),
            featurize(MolecularGraph.from_bonds(["B", "D", "E"], [], 3), SYNTHETIC_ALPHABET),
            sample_graph(rng, n_relations=2, n_max=7),
            featurize(MolecularGraph.from_bonds(["A", "B", "D", "E"], [(0, 1, 2), (1, 2, 2), (0, 3, 1)], 2),
                      SYNTHETIC_ALPHABET),
        ]

    def test_one_pass_pack_equals_the_concatenated_oracle(self):
        # field by field and bit for bit: the pack of the mixed graphs, each
        # graph alone, and the graphs in reverse order
        graphs = self.mixed_pack_graphs()
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3)
        for members in [graphs, graphs[::-1]] + [[g] for g in graphs]:
            packed = pack(members, cfg)
            expected = concatenated_pack([prepare_graph_oracle(g, cfg, SYNTHETIC_ALPHABET) for g in members])
            assert packed.slots.n_relations == expected.slots.n_relations == 3
            fields = [(packed, expected, name) for name in ("features", "ring", "uniform")]
            fields += [(packed.slots, expected.slots, name) for name in ("bounds", "segments", "src", "dst", "keys")]
            for ours, theirs, name in fields:
                actual, wanted = getattr(ours, name), getattr(theirs, name)
                if isinstance(wanted, Tensor):
                    actual, wanted = actual.data, wanted.data
                assert actual.dtype == wanted.dtype, name
                np.testing.assert_array_equal(actual, wanted, err_msg=name)

    def test_pack_one_hot_equals_the_featurize_oracle(self):
        # an unknown element (the OTHER slot), an atom of degree 7 and one
        # with 5 explicit H, so both clamps run, and a lone atom, all in one
        # pack: its node rows are the oracle's rows, graph after graph
        vocab = ("C", "N", "O", "H")
        graphs = [featurize(MolecularGraph.from_bonds(symbols, bonds, 2), vocab) for symbols, bonds in [
            (["C", "N", "O", "C", "N", "O", "C", "C"], [(0, k, 1 + k % 2) for k in range(1, 8)]),
            (["O"], []),
            (["N", "Xx"], [(0, 1, 2)]),
            (["C", "H", "H", "H", "H", "H"], [(0, k, 1) for k in range(1, 6)]),
        ]]
        assert graphs[0].degree[0] == 7 and graphs[3].h_count[0] == 5 and graphs[2].element_slots[1] == len(vocab)
        cfg = ModelConfig(node_feat_dim=node_feature_dim(vocab), link_feat_dim=link_feature_dim(2), n_relations=2,
                          query_dim=1, memory_size=4, controller_size=3)
        expected = np.concatenate([featurize_oracle(graph_record(g), vocab)[0] for g in graphs])
        np.testing.assert_array_equal(pack(graphs, cfg).features.data, expected, strict=True)

    def test_keyed_pack_matches_the_per_relation_oracles(self):
        graphs = self.mixed_pack_graphs()
        for mode in NEIGHBOR_MODES:
            cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                              memory_size=4, controller_size=3, neighbor_mode=mode)
            params = make_params(cfg, seed=43)
            blocks = param_blocks(params.arrays())
            rng = np.random.default_rng(44)
            for name in ("nbr.score", "nbr.bias", "mem.bias", "mem_gate.bias"):
                if name in blocks:
                    blocks[name][...] = rng.normal(size=blocks[name].shape)
            prepared = pack(graphs, cfg)
            assert prepared.slots.n_relations == 3 and not np.any(prepared.slots.keys % 3 == 2), mode
            np.testing.assert_array_equal(link_sum(prepared.uniform, prepared.ring, prepared.slots).data[:, 2::3], 0.0)
            cells = rng.normal(size=(prepared.n_nodes, 4))
            controllers = rng.normal(size=(len(graphs), 3))
            state = HopState(t=0, controller=Tensor(controllers), memory=Tensor(cells))
            memory = memory_step(state, Tensor(controllers), params, prepared, _memory_bias(params, prepared)).data
            expected, _ = per_relation_memory_step_oracle(graphs, params.arrays(), cells, controllers, mode)
            np.testing.assert_allclose(memory, expected, rtol=0, atol=1e-12, err_msg=mode)
            # each graph alone, and in learned mode from the node-by-node definition
            for b, graph in enumerate(graphs):
                rows = slice(prepared.slots.bounds[b], prepared.slots.bounds[b + 1])
                one_graph = prepare_graph(graph, cfg)
                alone = memory_step(HopState(t=0, controller=Tensor(controllers[b:b + 1]), memory=Tensor(cells[rows])),
                                    Tensor(controllers[b:b + 1]), params, one_graph,
                                    _memory_bias(params, one_graph)).data
                np.testing.assert_allclose(alone, memory[rows], rtol=0, atol=1e-12, err_msg=mode)
                if mode == "learned":
                    one, _ = learned_memory_step_oracle(graph, params.arrays(), cells[rows], controllers[b])
                    np.testing.assert_allclose(memory[rows], one, rtol=0, atol=1e-12)

    def test_memory_bias_equals_the_mean_links_oracle(self):
        # bit for bit: the uniform-mode bias from the link sum of the
        # uniform weights, against the averaged link rows summed edge by edge,
        # on the mixed pack, each graph alone and the graphs in reverse order
        graphs = self.mixed_pack_graphs()
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3)
        params = make_params(cfg, seed=48)
        params["mem.gated.bias"].data[...] = np.random.default_rng(49).normal(size=2 * 4)
        for members in [graphs, graphs[::-1]] + [[g] for g in graphs]:
            prepared = pack(members, cfg)
            np.testing.assert_array_equal(_memory_bias(params, prepared).data,
                                          mean_links_bias_oracle(prepared, params.arrays()))

    def test_learned_memory_bias_is_the_bias_parameter(self):
        # each learned hop adds its own link sum, so the bias is the
        # mem.gated.bias vector itself: no projection and no per-row node
        graphs = self.mixed_pack_graphs()
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3, neighbor_mode="learned")
        params = make_params(cfg, seed=50)
        for members in [graphs] + [[g] for g in graphs]:
            assert _memory_bias(params, pack(members, cfg)) is params["mem.gated.bias"]

    def test_keyed_pack_reduces_to_mean_passing(self):
        graphs = self.mixed_pack_graphs()
        cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                          memory_size=4, controller_size=3)
        params = mean_passing_params(cfg)
        blocks = param_blocks(params.arrays())
        for r in (1, 2):  # only the first relation's neighbours count
            blocks[f"mem.rel{r}"][...] = 0.0
            blocks[f"mem_gate.rel{r}"][...] = 0.0
        prepared = pack(graphs, cfg)
        cells = np.random.default_rng(45).uniform(0.0, 1.0, size=(prepared.n_nodes, 4))
        state = HopState(t=0, controller=Tensor(np.zeros((len(graphs), 3))), memory=Tensor(cells))
        bias = _memory_bias(params, prepared)
        memory = memory_step(state, Tensor(np.zeros((len(graphs), 3))), params, prepared, bias).data
        for b, graph in enumerate(graphs):
            rows = slice(prepared.slots.bounds[b], prepared.slots.bounds[b + 1])
            expected = mean_passing_oracle(neighbor_lists(graph)[0], cells[rows], hops=1)
            np.testing.assert_allclose(memory[rows], expected, atol=1e-12)

    def test_keyed_pack_gradients_match_finite_differences(self):
        graphs = self.mixed_pack_graphs()
        for mode in NEIGHBOR_MODES:
            cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=1,
                              memory_size=3, controller_size=2, neighbor_mode=mode)
            params = make_params(cfg, seed=46)
            blocks = param_blocks(params.arrays())
            rng = np.random.default_rng(47)
            for name in ("nbr.score", "nbr.bias", "mem.bias", "mem_gate.bias"):
                if name in blocks:
                    blocks[name][...] = rng.normal(size=blocks[name].shape)
            prepared = pack(graphs, cfg)
            cells = rng.normal(size=(prepared.n_nodes, 3))
            controllers = rng.normal(size=(len(graphs), 2))
            weights = rng.normal(size=cells.shape)
            frozen = params.frozen()

            def value() -> float:
                state = HopState(t=0, controller=Tensor(controllers), memory=Tensor(cells))
                bias = _memory_bias(frozen, prepared)
                return float((weights * memory_step(state, Tensor(controllers), frozen, prepared, bias).data).sum())

            params.zero_grads()
            state = HopState(t=0, controller=Tensor(controllers), memory=Tensor(cells))
            bias = _memory_bias(params, prepared)
            memory_step(state, Tensor(controllers), params, prepared, bias).backward(seed=weights)
            names = [n for n in params.tensors if n.startswith(("mem", "nbr"))]
            exact = {n: g for n, g in params.grads().items() if n in names}
            estimate = finite_difference_gradient(value, {n: params.arrays()[n] for n in names})
            worst, name = max_relative_error(exact, estimate)
            assert worst <= 1e-6, (mode, worst, name)
            # no edge under the third relation: its neighbour weights get no gradient
            np.testing.assert_array_equal(np.asarray(param_blocks(params.grads())["mem.rel2"]), 0.0)

    @pytest.mark.parametrize("n_relations", [3, 4])
    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_every_link_column_trains(self, mode, n_relations):
        # under each relation a triangle, whose bonds lie in a ring, and a
        # pendant bond, which does not: every column of the link weight, each
        # relation's indicator and ring sum, gets a gradient
        symbols, bonds = [], []
        for r in range(1, n_relations + 1):
            first = len(symbols)
            symbols += ["A", "B", "D", "E"]
            bonds += [(first, first + 1, r), (first + 1, first + 2, r), (first, first + 2, r), (first, first + 3, r)]
        graph = featurize(MolecularGraph.from_bonds(symbols, bonds, n_relations), SYNTHETIC_ALPHABET)
        cfg = small_config(n_relations=n_relations, memory=4, controller=3, neighbor_mode=mode)
        prepared = pack([graph, sample_graph(np.random.default_rng(5), n_relations=n_relations)], cfg)
        relation = prepared.slots.keys % n_relations
        for r in range(n_relations):
            assert set(prepared.ring[relation == r].tolist()) == {0.0, 1.0}, r
        params = TestPerGraphSums.random_params(cfg, 52)
        forward(prepared, np.ones(1), params, 3).probability.backward()
        grad = params.grads()["mem.gated.link"]
        assert np.all(np.any(grad != 0.0, axis=0)), np.flatnonzero(~np.any(grad != 0.0, axis=0))
        assert grad.shape == (2 * 4, 2 * n_relations)

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
        memory = memory_step(state, Tensor(np.ones((1, 3))), params, prepared, _memory_bias(params, prepared))
        np.testing.assert_array_equal(memory.data, cells)


def narrowed_grads(wide: ModelParams) -> dict[str, np.ndarray]:
    """The gradients of parameters that hold the wide link weight
    (:func:`wide_link_params`), with that weight's gradient taken at its
    live columns, after checking that its dead columns got exactly zero."""
    grads = wide.grads()
    live = live_link_columns(wide.config.n_relations)
    np.testing.assert_array_equal(np.delete(grads["mem.gated.link"], live, axis=1), 0.0)
    return {**grads, "mem.gated.link": grads["mem.gated.link"][:, live]}


def run_stage(stage: str, prepared, params: ModelParams, cells, controllers, seed, keyed: bool):
    """One stage on tracked copies of ``cells`` and ``controllers``, through
    the model or its keyed oracle (on the wide link weight), seeded
    backward from ``seed``: its output arrays and every gradient,
    parameters and inputs."""
    memory, controller = Tensor(cells.copy(), True), Tensor(controllers.copy(), True)
    state = HopState(t=0, controller=controller, memory=memory)
    params.zero_grads()
    run_params = wide_link_params(params) if keyed else params
    if stage == "read":  # the read reaches the parameters through the controller update
        read, weights, scores = (keyed_attentive_read if keyed else attentive_read)(state, run_params, prepared)
        out = controller_step(state, read, run_params)
        outputs = [read.data, weights.data, scores.data, out.data]
    else:
        bias = (keyed_memory_bias if keyed else _memory_bias)(run_params, prepared)
        out = (keyed_memory_step if keyed else memory_step)(state, controller, run_params, prepared, bias)
        outputs = [out.data]
    out.backward(seed=seed)
    grads = narrowed_grads(run_params) if keyed else params.grads()
    return outputs, {**grads, "memory": memory.grad, "controller": controller.grad}


def assert_matches_keyed(new, keyed, label):
    (outputs, grads), (keyed_outputs, keyed_grads) = new, keyed
    for k, (a, b) in enumerate(zip(outputs, keyed_outputs)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=f"{label} output {k}")
    assert set(grads) == set(keyed_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], keyed_grads[name], rtol=0, atol=1e-12, err_msg=f"{label} {name}")


class TestPerGraphSums:
    """The block products and per-graph sums against the keyed formulation
    they replaced (the keyed_* oracles, which also run the wide link weight
    and link rows that the (2 k_m, 2R) weight and link sums replaced), and
    the slot layout against its definition."""

    @staticmethod
    def two_group_graphs():
        """The mixed pack of TestMemoryStep (1-7 atoms) plus two graphs of
        16-20 atoms, so that its graphs fall into several size groups."""
        rng = np.random.default_rng(51)
        return TestMemoryStep.mixed_pack_graphs() + [
            featurize(random_graph(rng, 16, 20, 2), SYNTHETIC_ALPHABET) for _ in range(2)]

    @staticmethod
    def config(mode):
        return ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(3), n_relations=3, query_dim=2,
                           memory_size=4, controller_size=3, neighbor_mode=mode)

    @staticmethod
    def random_params(cfg, seed):
        params = make_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for name in ("attn.score", "attn.bias", "nbr.score", "nbr.bias", "ctrl.gated.bias", "mem.gated.bias"):
            if name in params.tensors:
                params[name].data[...] = rng.normal(size=params[name].shape)
        return params

    @pytest.mark.parametrize("stage", ["read", "memory"])
    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_stage_and_its_gradients_match_the_keyed_oracle(self, mode, stage):
        # the mixed pack (a single atom, atoms without bonds, graphs with
        # fewer relations than the model, no edge under the third relation),
        # the same with two large graphs, and each graph alone
        cfg = self.config(mode)
        params = self.random_params(cfg, 60)
        rng = np.random.default_rng(61)
        graphs = self.two_group_graphs()
        for members in [graphs[:5], graphs] + [[g] for g in graphs]:
            prepared = pack(members, cfg)
            if len(members) > 1:
                assert len(prepared.slots.groups) >= 2
            cells = rng.normal(size=(prepared.n_nodes, 4))
            controllers = rng.normal(size=(prepared.n_graphs, 3))
            seed = rng.normal(size=(prepared.n_graphs, 3) if stage == "read" else cells.shape)
            new = run_stage(stage, prepared, params, cells, controllers, seed, keyed=False)
            keyed = run_stage(stage, prepared, params, cells, controllers, seed, keyed=True)
            assert_matches_keyed(new, keyed, f"{mode} {stage} {len(members)} graphs")

    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_forward_and_its_gradients_match_the_keyed_oracle(self, mode):
        cfg = self.config(mode)
        params = self.random_params(cfg, 62)
        rng = np.random.default_rng(63)
        graphs = self.two_group_graphs()
        queries = np.eye(2)[rng.integers(0, 2, size=len(graphs))]
        seed = rng.normal(size=(len(graphs), 1))
        results = []
        for keyed in (False, True):
            prepared = pack(graphs, cfg)
            generators = [np.random.default_rng(70 + k) for k in range(len(graphs))]
            params.zero_grads()
            if keyed:
                wide = wide_link_params(params)
                probability = keyed_forward(prepared, queries, wide, 4, dropout_rate=0.3, rng=generators,
                                            training=True)
            else:
                probability = forward(prepared, queries, params, 4, dropout_rate=0.3, rng=generators,
                                      training=True).probability
            probability.backward(seed=seed)
            results.append(([probability.data], narrowed_grads(wide) if keyed else params.grads()))
        assert_matches_keyed(*results, mode)

    def test_forty_random_packs_match_the_keyed_oracle(self):
        # 1-60 atoms per graph, 1-4 relations in the graphs and up to 4 in
        # the model, both neighbour modes: probabilities and every parameter
        # gradient after hops 2
        rng = np.random.default_rng(64)
        several_groups = 0
        for trial in range(40):
            graph_relations = int(rng.integers(1, 5))
            mode = NEIGHBOR_MODES[trial % 2]
            n_relations = int(rng.integers(graph_relations, 5))
            cfg = ModelConfig(node_feat_dim=K_X, link_feat_dim=link_feature_dim(n_relations), n_relations=n_relations,
                              query_dim=1, memory_size=3, controller_size=2, neighbor_mode=mode)
            params = self.random_params(cfg, 100 + trial)
            graphs = [featurize(random_graph(rng, 1, 60, graph_relations), SYNTHETIC_ALPHABET)
                      for _ in range(int(rng.integers(1, 7)))]
            prepared = pack(graphs, cfg)
            several_groups += len(prepared.slots.groups) > 1
            seed = rng.normal(size=(len(graphs), 1))
            params.zero_grads()
            probability = forward(prepared, np.ones(1), params, 2).probability
            probability.backward(seed=seed)
            results = [([probability.data], params.grads())]
            params.zero_grads()
            wide = wide_link_params(params)
            probability = keyed_forward(prepared, np.ones(1), wide, 2)
            probability.backward(seed=seed)
            results.append(([probability.data], narrowed_grads(wide)))
            assert_matches_keyed(*results, f"trial {trial} {mode}")
        assert several_groups >= 1

    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_memory_update_matches_the_kept_sums_oracle(self, mode):
        # the Neighbours term, which makes the neighbour sums again in
        # backward, against the block_sum node it replaced, which kept them:
        # the value and every gradient (the cells, the controller rows and
        # every parameter, mem.gated.nbr and the learned edge scorer's among
        # them) on packs of several size groups and on each graph alone
        cfg = self.config(mode)
        params = self.random_params(cfg, 72)
        rng = np.random.default_rng(73)
        graphs = self.two_group_graphs()
        for members in [graphs[:5], graphs] + [[g] for g in graphs]:
            prepared = pack(members, cfg)
            cells = rng.normal(size=(prepared.n_nodes, 4))
            controllers = rng.normal(size=(prepared.n_graphs, 3))
            seed = rng.normal(size=cells.shape)
            results = []
            for step in (memory_step, kept_sums_memory_step):
                params.zero_grads()
                memory, controller = Tensor(cells.copy(), True), Tensor(controllers.copy(), True)
                state = HopState(t=0, controller=controller, memory=memory)
                out = step(state, controller, params, prepared, _memory_bias(params, prepared))
                out.backward(seed=seed)
                results.append(([out.data], {**params.grads(), "memory": memory.grad, "controller": controller.grad}))
            assert_matches_keyed(*results, f"{mode} {len(members)} graphs")
            if len(members) > 1:
                assert len(prepared.slots.groups) >= 2
                grads = results[0][1]
                assert np.any(grads["mem.gated.nbr"])
                assert mode == "uniform" or np.any(grads["nbr.cell"]) and np.any(grads["nbr.self"])

    def test_per_graph_terms_check_their_shapes(self):
        prepared = pack(self.two_group_graphs()[:3], self.config("uniform"))
        cells, w = Tensor(np.ones((prepared.n_nodes, 4))), Tensor(np.ones((2, 4)))
        with pytest.raises(DimensionError):  # the slots give one row per graph, not one per cell
            linear_sum([(cells, w, prepared.slots)])
        read = graph_sum(cells, Tensor(np.ones(prepared.n_nodes)), prepared.slots)
        assert linear_sum([(read, w)]).shape == (3, 2)
        with pytest.raises(DimensionError):  # one weight per cell
            graph_sum(cells, Tensor(np.ones(2)), prepared.slots)
        n_edges, nbr = prepared.slots.src.size, Tensor(np.ones((2, 12)))  # R = 3 relations of 4 columns
        summed = linear_sum([(cells, nbr, Neighbours(Tensor(np.ones(n_edges)), prepared.slots))])
        assert summed.shape == (prepared.n_nodes, 2)
        with pytest.raises(DimensionError):  # one weight per edge
            linear_sum([(cells, nbr, Neighbours(Tensor(np.ones(n_edges + 1)), prepared.slots))])
        with pytest.raises(DimensionError):  # the weight needs R column blocks of the cells' width
            linear_sum([(cells, w, Neighbours(Tensor(np.ones(n_edges)), prepared.slots))])

    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_ring_sum_matches_the_masked_block_oracle(self, mode, monkeypatch):
        # the link sum against the keyed sum of every edge's link row (its
        # values) and against the masked block product its ring sums
        # replaced (its ring columns and every gradient through the edge
        # weights: a leaf in uniform mode, the learned scorer's in learned
        # mode), on the mixed pack (a single atom, atoms without bonds, a
        # relation no graph uses), the same with two large graphs, and each
        # graph alone. The link sum runs no block product, forward or
        # backward.
        products = []

        def counting(slots, *args, real=Slots.product, **kwargs):
            products.append(ring_sum)
            return real(slots, *args, **kwargs)

        def linked(prepared, weights, k_b):
            return link_sum(weights, prepared.ring, prepared.slots)

        monkeypatch.setattr(Slots, "product", counting)
        cfg = self.config(mode)
        params = self.random_params(cfg, 69)
        rng = np.random.default_rng(70)
        graphs = self.two_group_graphs()
        n_relations, k_b = cfg.n_relations, cfg.n_relations + 1
        live = live_link_columns(n_relations)
        for members in [graphs[:5], graphs] + [[g] for g in graphs]:
            prepared = pack(members, cfg)
            cells = rng.normal(size=(prepared.n_nodes, 4))
            seed = rng.normal(size=(prepared.n_nodes, n_relations * k_b))  # at the wide rows
            results = []
            for ring_sum in (linked, masked_block_ring_sum):
                params.zero_grads()
                memory = Tensor(cells.copy(), True)
                weights = _neighbor_weights(prepared, memory, params)
                leaf = None
                if not weights.requires_grad and weights._backward is None:
                    weights = leaf = Tensor(weights.data.copy(), True)
                summed = ring_sum(prepared, weights, k_b)
                if ring_sum is linked:
                    np.testing.assert_allclose(wide_link(summed.data, n_relations),
                                               keyed_link_sum(prepared, weights, k_b).data, rtol=0, atol=1e-12)
                    np.testing.assert_array_equal(summed.data[:, 2::3], 0.0)  # no edge under relation 3
                    rings = summed.data[:, n_relations:]
                    summed.backward(seed=seed[:, live])
                else:
                    rings = summed.data.reshape(-1, n_relations, k_b)[:, :, -1]
                    summed.backward(seed=seed)
                grads = {**params.grads(), "memory": np.zeros_like(cells) if memory.grad is None else memory.grad}
                if leaf is not None:
                    grads["weights"] = leaf.grad
                    np.testing.assert_array_equal(leaf.grad[prepared.ring == 0.0], 0.0)
                results.append(([rings], grads))
            assert_matches_keyed(*results, f"{mode} {len(members)} graphs")
        assert linked not in products and masked_block_ring_sum in products

    def test_scorer_index_is_built_once_per_pack_and_width_and_freed_with_it(self):
        # the learned edge scorer reaches its edges' ends through the pack's
        # kept gathers: the first backward builds each end's flat scatter
        # index at the scorer's width, every later hop and step on the pack
        # reuses it, and it goes when the pack goes
        params = self.random_params(self.config("learned"), 71)
        prepared = pack(self.two_group_graphs(), params.config)
        width = params.config.controller_size
        kept = []
        for _ in range(2):
            self.training_step(params, prepared, 4).backward()
            ends = (prepared.slots.at_src, prepared.slots.at_dst)
            assert [sorted(end._flat) for end in ends] == [[width], [width]]
            kept.append([end._flat[width] for end in ends])
        assert all(a is b for a, b in zip(*kept))
        refs = [weakref.ref(prepared)] + [weakref.ref(index) for index in kept[0]]
        del prepared, ends, kept
        gc.collect()
        assert all(ref() is None for ref in refs)

    @staticmethod
    def training_step(params, prepared, hops):
        """A pack's training forward (dropout on) and the probability it
        ends in, to run backward from."""
        generators = [np.random.default_rng(80 + k) for k in range(prepared.n_graphs)]
        queries = np.eye(2)[np.arange(prepared.n_graphs) % 2]
        return forward(prepared, queries, params, hops, dropout_rate=0.1, rng=generators, training=True).probability

    @staticmethod
    def blocks_seen(monkeypatch) -> list[np.ndarray]:
        """The block array each batched ``matmul`` of a block product reads,
        as the flat array its block operand views, one entry per call."""
        seen = []

        def recording(a, *args, real=np.matmul, **kwargs):
            root = a
            while root.base is not None:
                root = root.base
            seen.append(root)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        return seen

    @pytest.mark.parametrize("hops", [2, 10])
    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_block_products_per_training_step(self, mode, hops, monkeypatch):
        # both modes multiply the neighbour cells once per memory hop and
        # keep no sums, so backward multiplies twice: once to make the sums
        # again for the weight's gradient, once for their transposed
        # product. The ring flags are a keyed sum, with no product. Each
        # product writes its weights into the pack's block array; the pack
        # is built before counting starts.
        params = self.random_params(self.config(mode), 67)
        prepared = pack(self.two_group_graphs(), params.config)
        calls = []

        def counting(slots, *args, real=Slots.product, **kwargs):
            calls.append(1)
            return real(slots, *args, **kwargs)

        monkeypatch.setattr(Slots, "product", counting)
        probability = self.training_step(params, prepared, hops)
        n_forward = len(calls)
        probability.backward()
        memory_hops = hops - 1
        assert n_forward == memory_hops
        assert len(calls) - n_forward == 2 * memory_hops

    @pytest.mark.parametrize("mode", NEIGHBOR_MODES)
    def test_every_product_of_a_pack_uses_its_one_block_array(self, mode, monkeypatch):
        # forward neighbour sums, and backward's sums and transposed
        # products, all read the same flat array, one matmul per size group;
        # after the training step every entry off the edges' positions is
        # still zero
        params = self.random_params(self.config(mode), 68)
        prepared = pack(self.two_group_graphs(), params.config)
        slots = prepared.slots
        assert len(slots.groups) >= 2
        seen = self.blocks_seen(monkeypatch)
        probability = self.training_step(params, prepared, 4)
        n_forward = len(seen)
        probability.backward()
        assert (n_forward, len(seen) - n_forward) == (3 * len(slots.groups), 6 * len(slots.groups))
        assert all(blocks is seen[0] for blocks in seen)
        assert seen[0].shape == (slots.n_entries,)
        off = np.ones(slots.n_entries, dtype=bool)
        off[slots.positions] = False
        assert off.any()
        np.testing.assert_array_equal(seen[0][off], 0.0)
        # a second pack has an array of its own
        forward(pack(self.two_group_graphs()[:3], params.config), np.ones(2), params, 2)
        assert seen[-1] is not seen[0]

    def test_tape_keeps_no_neighbour_sums(self):
        # the memory a training forward holds, traced, per cell per added
        # hop: the gated update's output, proposal and gate (3 k_m floats),
        # the attention's activated rows (k_h) and a few floats more (the
        # attention scores and weights, and the controller rows and read of
        # the pack's two graphs, 4 k_h + k_m floats per graph); the
        # neighbour sums, R k_m floats, are made again in backward and not
        # kept
        rng = np.random.default_rng(74)
        cfg = small_config(n_relations=4, memory=32, controller=32)
        params = make_params(cfg, seed=75)
        prepared = pack([featurize(random_graph(rng, 90, 110, 4), SYNTHETIC_ALPHABET) for _ in range(2)], cfg)
        assert 180 <= prepared.n_nodes <= 220

        def held(hops):
            def run():
                generators = [np.random.default_rng(76 + k) for k in range(prepared.n_graphs)]
                return forward(prepared, np.ones(1), params, hops, dropout_rate=0.1, rng=generators, training=True)

            run()  # the pack's block array and padded rows are made by its first product
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = run()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                del result
                tracemalloc.stop()

        low, high = 2, 8
        per_cell_hop = (held(high) - held(low)) / ((high - low) * prepared.n_nodes * 8)
        assert per_cell_hop < 3 * 32 + 32 + 8

    def test_one_large_graph_among_single_atoms_forms_two_groups(self):
        rng = np.random.default_rng(65)
        single = featurize(MolecularGraph.from_bonds(["A"], [], 2), SYNTHETIC_ALPHABET)
        large = featurize(random_graph(rng, 200, 200, 2), SYNTHETIC_ALPHABET)
        graphs = [single] * 20 + [large] + [single] * 36
        slots = pack(graphs, small_config(n_relations=2)).slots
        assert [(n, m) for _, _, n, m in slots.groups] == [(56, 1), (1, 200)]
        assert slots.n_padded == 256 and slots.n_entries == 56 * 1 * 2 * 1 + 200 * 2 * 200
        # each graph's width is that of the group its first slot lies in
        first = slots.slot[slots.bounds[:-1]]
        width = np.zeros(len(graphs), dtype=int)
        for start, _, n, m in slots.groups:
            width[(first >= start) & (first < start + n * m)] = m
        assert np.all(width >= slots.counts) and np.all(width <= 2 * slots.counts)

    def test_slot_layout_and_uniform_blocks_match_their_definition(self, monkeypatch):
        # groups, the padded slot of every row and the block array after a
        # product of the uniform weights, from the graphs' bonds one by one
        rng = np.random.default_rng(66)
        graphs = self.two_group_graphs() + [featurize(random_graph(rng, 3, 5, 2), SYNTHETIC_ALPHABET)]
        seen = self.blocks_seen(monkeypatch)
        for members in [graphs, graphs[::-1], graphs[:1]]:
            prepared = pack(members, self.config("uniform"))
            prepared.slots.product(prepared.uniform.data, np.ones((prepared.n_nodes, 2)), 2)
            sizes = [g.n_nodes for g in members]
            edges = []
            for b, graph in enumerate(members):
                neighbors = neighbor_lists(graph)
                for r, per_node in enumerate(neighbors):
                    for i, nbrs in enumerate(per_node):
                        edges += [(b, i, j, r, 1.0 / len(nbrs)) for j in nbrs]
            groups, blocks = block_layout_oracle(sizes, edges, 3)
            slots = prepared.slots
            assert [(n, m) for _, _, n, m in slots.groups] == [(len(g), blk.shape[2]) for g, blk in zip(groups, blocks)]
            for (first, entry, n, m), group, block in zip(slots.groups, groups, blocks):
                np.testing.assert_array_equal(seen[-1][entry:entry + block.size].reshape(block.shape), block)
                for l, b in enumerate(group):
                    rows = np.arange(prepared.slots.bounds[b], prepared.slots.bounds[b + 1])
                    np.testing.assert_array_equal(slots.slot[rows], first + l * m + np.arange(sizes[b]))
            assert sum(block.size for block in blocks) == slots.n_entries


class TestForward:
    def test_final_hop_updates_no_memory(self, monkeypatch):
        import graphmem.model as model_module

        calls = []
        real_memory_step = model_module.memory_step

        def counting_memory_step(*args):
            calls.append(args[0].t)
            return real_memory_step(*args)

        monkeypatch.setattr(model_module, "memory_step", counting_memory_step)
        cfg = small_config(n_relations=2)
        result = forward(sample_graph(np.random.default_rng(3)), np.ones(1), make_params(cfg), hops=3,
                         dropout_rate=0.5, rng=np.random.default_rng(0), training=True)
        assert calls == [0, 1]  # updates after hops 1 and 2 only
        assert [s.memory is None for s in result.states] == [False, False, False, True]

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
            queries = np.eye(2)[rng.integers(0, 2, size=len(graphs))]
            alone = [forward(g, q, params, hops=3, dropout_rate=0.4, rng=np.random.default_rng(50 + k),
                             training=True).probability.item()
                     for k, (g, q) in enumerate(zip(graphs, queries))]
            packed = forward(pack(graphs, cfg), queries, params, hops=3, dropout_rate=0.4,
                             rng=[np.random.default_rng(50 + k) for k in range(len(graphs))],
                             training=True).probability.data.ravel()
            np.testing.assert_allclose(packed, alone, rtol=0, atol=1e-12, err_msg=mode)

    def test_each_graph_draws_as_many_doubles_as_its_masks(self):
        # 2 k_h + m k_m doubles from each graph's generator, however many hops
        cfg = small_config(n_relations=2, memory=5, controller=3)
        params = make_params(cfg, seed=24)
        graphs = [sample_graph(np.random.default_rng(25 + k), n_relations=2) for k in range(3)]
        for hops in (1, 4):
            generators = [np.random.default_rng(90 + k) for k in range(3)]
            forward(pack(graphs, cfg), np.ones(1), params, hops=hops, dropout_rate=0.3, rng=generators,
                    training=True)
            for k, (graph, generator) in enumerate(zip(graphs, generators)):
                reference = np.random.default_rng(90 + k)
                reference.random(2 * 3 + graph.n_nodes * 5)
                assert generator.bit_generator.state == reference.bit_generator.state, (hops, k)

    def test_inference_is_identity(self):
        # at inference or rate 0 forward draws no mask: nothing moves the
        # generator, and the probability is that of a forward without dropout
        cfg = small_config(n_relations=2)
        params = make_params(cfg, seed=21)
        graph = sample_graph(np.random.default_rng(8), n_relations=2)
        plain = forward(graph, np.ones(1), params, hops=3).probability.item()
        for rate, training in [(0.5, False), (0.0, True)]:
            generator = np.random.default_rng(77)
            before = generator.bit_generator.state
            probability = forward(graph, np.ones(1), params, hops=3, dropout_rate=rate, rng=generator,
                                  training=training).probability.item()
            assert probability == plain and generator.bit_generator.state == before, (rate, training)

    def test_rate_one_rejected(self):
        # a rate outside [0, 1) is refused at inference too, where nothing draws
        cfg = small_config(n_relations=2)
        params = make_params(cfg)
        graph = sample_graph(np.random.default_rng(8), n_relations=2)
        for rate in (1.0, -0.1, float("nan")):
            for training in (False, True):
                with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
                    forward(graph, np.ones(1), params, hops=2, dropout_rate=rate, rng=np.random.default_rng(0),
                            training=training)

    def test_training_dropout_needs_one_generator_per_graph(self):
        cfg = small_config(n_relations=2)
        params = make_params(cfg)
        graphs = [sample_graph(np.random.default_rng(k), n_relations=2) for k in range(3)]
        prepared = pack(graphs, cfg)
        with pytest.raises(ValueError, match="needs random generators"):
            forward(prepared, np.ones(1), params, hops=2, dropout_rate=0.2, training=True)
        for count in (1, 2, 4):
            with pytest.raises(ValueError, match=f"dropout over 3 graphs needs as many generators, got {count}"):
                forward(prepared, np.ones(1), params, hops=2, dropout_rate=0.2,
                        rng=[np.random.default_rng(k) for k in range(count)], training=True)
        with pytest.raises(ValueError, match="got 1"):  # one Generator is a pack of one's
            forward(prepared, np.ones(1), params, hops=2, dropout_rate=0.2, rng=np.random.default_rng(0),
                    training=True)
        one = forward(graphs[0], np.ones(1), params, hops=2, dropout_rate=0.2, rng=np.random.default_rng(5),
                      training=True).probability.item()
        listed = forward(graphs[0], np.ones(1), params, hops=2, dropout_rate=0.2, rng=[np.random.default_rng(5)],
                         training=True).probability.item()
        assert one == listed

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

    def test_learned_pack_without_bonds_scores_no_edges(self):
        # a pack with no edge runs the edge scorer on zero edges, as any pack
        # does: each graph scores as alone, and the scorer gets zero gradients
        cfg = small_config(n_relations=2, neighbor_mode="learned")
        params = make_params(cfg, seed=5)
        rng = np.random.default_rng(0)
        for name in ("nbr.score", "nbr.bias"):
            params[name].data[...] = rng.normal(size=cfg.controller_size)
        graphs = [featurize(MolecularGraph.from_bonds(list(symbols), [], 2), SYNTHETIC_ALPHABET)
                  for symbols in ("A", "BD", "ABEA")]
        prepared = pack(graphs, cfg)
        assert prepared.slots.src.size == 0
        probability = forward(prepared, np.ones(1), params, hops=4).probability
        alone = [forward(g, np.ones(1), params, hops=4).probability.item() for g in graphs]
        np.testing.assert_allclose(probability.data[:, 0], alone, rtol=0, atol=1e-12)
        loss = binary_cross_entropy(probability, np.array([[1.0], [0.0], [1.0]]))
        assert np.all(np.isfinite(loss.data))
        params.zero_grads()
        loss.backward()
        for name in ("nbr.cell", "nbr.self", "nbr.bias", "nbr.score"):
            assert params[name].grad is not None, name  # the scorer is on the tape
            np.testing.assert_array_equal(params[name].grad, 0.0, err_msg=name)


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
                    if s_base.memory is not None:  # hops 0..2; the final hop updates no memory
                        np.testing.assert_allclose(
                            s_other.memory.data[perm], s_base.memory.data, atol=1e-9, err_msg=mode
                        )
                    if s_base.attention is not None:
                        np.testing.assert_allclose(
                            s_other.attention.data[perm], s_base.attention.data, atol=1e-9, err_msg=mode
                        )
            # reordering the graphs of a pack reorders its outputs
            graphs = [sample_graph(rng, n_relations=2) for _ in range(5)]
            order = rng.permutation(len(graphs))
            base = forward(pack(graphs, cfg), np.ones(1), params, hops=3)
            other = forward(pack([graphs[k] for k in order], cfg), np.ones(1), params, hops=3)
            np.testing.assert_allclose(other.probability.data, base.probability.data[order],
                                       atol=1e-9, err_msg=mode)
            bounds = pack(graphs, cfg).slots.bounds
            rows = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in order])
            for s_base, s_other in zip(base.states, other.states):
                if s_base.memory is not None:
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
            bias = _memory_bias(params, prepared)
            cells = rng.uniform(0.0, 1.0, size=(graph.n_nodes, 4))
            for hops in (1, 2, 3):
                state = HopState(t=0, controller=Tensor(np.zeros((1, 3))), memory=Tensor(cells))
                for _hop in range(hops):
                    memory = memory_step(state, Tensor(np.zeros((1, 3))), params, prepared, bias)
                    state = HopState(t=state.t + 1, controller=state.controller, memory=memory)
                expected = mean_passing_oracle(neighbor_lists(graph)[0], cells, hops=hops)
                np.testing.assert_allclose(state.memory.data, expected, atol=1e-12)

    def test_receptive_field_grows_one_hop_per_step(self):
        cfg = small_config(memory=4, controller=4)
        cut = dict(
            mem__ctrl=np.zeros((4, 4)),
            mem_gate__ctrl=np.zeros((4, 4)),
        )
        params = make_params(cfg, seed=5, **cut)
        graph = line_graph(5)
        poked = with_slot(graph, 4, SYNTHETIC_ALPHABET.index("E"))
        assert graph.symbols[4] != "E"
        distance = bfs_distances(neighbor_union(graph), source=4)
        # hops 4, so that hops 0..3 each keep their memory
        base = forward(graph, np.ones(1), params, hops=4)
        after = forward(poked, np.ones(1), params, hops=4)
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
