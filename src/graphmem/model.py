"""The graph memory network.

A query-conditioned recurrent controller is coupled to an external memory
with one cell per graph node. Each reasoning hop runs three stages against
the previous hop's values:

  1. attentive read -- soft attention over all cells produces a read vector,
  2. controller update -- the controller ingests the read vector,
  3. memory update -- every cell mixes its own past, a write from the
     controller, and per-relation contexts aggregated from its neighbors
     (neighbor cell state concatenated with the link features).

Both recurrences go through sigmoid-gated skip connections, so each hop
computes a proposal and blends it with the previous state. After the final
hop a single sigmoid unit over the controller state yields the probability
of the positive class; task identity enters only through the query vector,
which lets one parameter set serve many tasks.

Parameters are shared across hops and across cells, which keeps the whole
computation equivariant under node relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .molgraph import MolecularGraph
from .numerics import Tensor

NEIGHBOR_MODES = ("uniform", "learned")


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and wiring choices; everything a checkpoint must restore."""

    node_feat_dim: int
    link_feat_dim: int
    n_relations: int
    query_dim: int
    memory_size: int
    controller_size: int
    neighbor_mode: str = "uniform"
    raw_embedding: bool = False

    def __post_init__(self):
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {self.neighbor_mode!r}")
        if self.raw_embedding and self.memory_size != self.node_feat_dim:
            raise nm.DimensionError(
                f"raw embedding needs memory_size == node_feat_dim, got {self.memory_size} != {self.node_feat_dim}"
            )

    def to_dict(self) -> dict:
        return {
            "node_feat_dim": self.node_feat_dim,
            "link_feat_dim": self.link_feat_dim,
            "n_relations": self.n_relations,
            "query_dim": self.query_dim,
            "memory_size": self.memory_size,
            "controller_size": self.controller_size,
            "neighbor_mode": self.neighbor_mode,
            "raw_embedding": self.raw_embedding,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


class ModelParams:
    """All learned tensors, addressable by stable dotted names."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def arrays(self) -> dict[str, np.ndarray]:
        """The live parameter arrays; mutating them updates the model."""
        return {name: t.data for name, t in self.tensors.items()}

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.tensors.items():
            source = arrays[name]
            if source.shape != t.data.shape:
                raise nm.DimensionError(f"parameter {name}: shape {source.shape} != expected {t.data.shape}")
            t.data[...] = source

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Per-parameter gradients after a backward pass; untouched tensors give zero."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self.tensors.items()
        }

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        return cls(config, {name: nm.parameter(array) for name, array in arrays.items()})

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int) -> "ModelParams":
        """Seeded init: uniform +-sqrt(6/(fan_in+fan_out)) matrices, zero
        biases, zero attention score vectors."""
        rng = np.random.default_rng(seed)
        k_m, k_h = config.memory_size, config.controller_size
        k_x, k_b = config.node_feat_dim, config.link_feat_dim
        k_ctx = k_m + k_b

        def mat(rows: int, cols: int) -> Tensor:
            return nm.parameter(nm.glorot_uniform(rng, rows, cols))

        def zeros(*shape: int) -> Tensor:
            return nm.parameter(np.zeros(shape))

        t: dict[str, Tensor] = {}
        t["query_in.weight"] = mat(k_h, config.query_dim)
        t["query_in.bias"] = zeros(k_h)
        if not config.raw_embedding:
            t["embed.weight"] = mat(k_m, k_x)
            t["embed.bias"] = zeros(k_m)
        t["attn.cell"] = mat(k_h, k_m)
        t["attn.ctrl"] = mat(k_h, k_h)
        t["attn.bias"] = zeros(k_h)
        t["attn.score"] = zeros(k_h)
        t["ctrl.self"] = mat(k_h, k_h)
        t["ctrl.read"] = mat(k_h, k_m)
        t["ctrl.bias"] = zeros(k_h)
        t["ctrl_gate.self"] = mat(k_h, k_h)
        t["ctrl_gate.read"] = mat(k_h, k_m)
        t["ctrl_gate.bias"] = zeros(k_h)
        t["mem.self"] = mat(k_m, k_m)
        t["mem.ctrl"] = mat(k_m, k_h)
        t["mem.bias"] = zeros(k_m)
        t["mem_gate.self"] = mat(k_m, k_m)
        t["mem_gate.ctrl"] = mat(k_m, k_h)
        t["mem_gate.bias"] = zeros(k_m)
        for r in range(config.n_relations):
            t[f"mem.rel{r}"] = mat(k_m, k_ctx)
            t[f"mem_gate.rel{r}"] = mat(k_m, k_ctx)
        if config.neighbor_mode == "learned":
            t["nbr.cell"] = mat(k_h, k_m)
            t["nbr.self"] = mat(k_h, k_m)
            t["nbr.bias"] = zeros(k_h)
            t["nbr.score"] = zeros(k_h)
        t["out.weight"] = mat(1, k_h)
        t["out.bias"] = zeros(1)
        return cls(config, t)


@dataclass(eq=False)
class RelationEdges:
    """The directed edges of one relation, each bond in both directions,
    grouped by destination node and ordered by source within a group.

    ``uniform_mix`` and ``uniform_links`` are the neighbor mixing built
    from the constant weights 1/deg(dst): the (m, m) matrix that averages
    neighbor cells and the (m, k_b) mean link features of each node.
    """

    src: np.ndarray
    dst: np.ndarray
    links: Tensor
    uniform_mix: Tensor
    uniform_links: Tensor


@dataclass(eq=False)
class PreparedGraph:
    """Per-graph constants the hops reuse: node features and, per model
    relation, the edge list with its link features and uniform mixing."""

    graph: MolecularGraph
    features: Tensor
    relations: list[RelationEdges]

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


def _mixing(weights: Tensor, src: np.ndarray, dst: np.ndarray, links: Tensor,
            n_nodes: int) -> tuple[Tensor, Tensor]:
    """Scatter per-edge weights into the (m, m) matrix that mixes source
    cells into destination rows, and mix the link rows the same way."""
    mix = nm.scatter(weights, dst, src, (n_nodes, n_nodes))
    per_edge = nm.scatter(weights, dst, np.arange(src.size), (n_nodes, src.size))
    return mix, nm.matmul(per_edge, links)


def prepare_graph(graph: MolecularGraph, config: ModelConfig) -> PreparedGraph:
    """Precompute the constant tensors one graph contributes to every hop."""
    if graph.node_features is None:
        raise ValueError("graph is not featurized; call molgraph.featurize first")
    m = graph.n_nodes
    k_x = graph.node_features.shape[1]
    if k_x != config.node_feat_dim:
        raise nm.DimensionError(
            f"node features have width {k_x} but the model embedding expects {config.node_feat_dim}"
        )
    if graph.n_relations > config.n_relations:
        raise nm.DimensionError(
            f"graph uses {graph.n_relations} relations but the model has {config.n_relations}"
        )
    k_b = config.link_feat_dim
    for e in graph.edges:
        if e.link_features is None or e.link_features.shape != (k_b,):
            raise nm.DimensionError(
                f"edge ({e.i},{e.j}) link features {None if e.link_features is None else e.link_features.shape}"
                f" do not match width {k_b}"
            )

    ends = np.array([(e.i, e.j, e.relation) for e in graph.edges], dtype=np.intp).reshape(-1, 3)
    bond_links = np.array([e.link_features for e in graph.edges]).reshape(-1, k_b)
    src = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = np.concatenate([ends[:, 0], ends[:, 1]])
    relation = np.concatenate([ends[:, 2], ends[:, 2]])
    links = np.concatenate([bond_links, bond_links])
    order = np.lexsort((src, dst, relation))
    src, dst, relation, links = src[order], dst[order], relation[order], links[order]
    bounds = np.searchsorted(relation, np.arange(1, config.n_relations + 2))

    relations: list[RelationEdges] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = slice(lo, hi)
        edge_links = nm.constant(links[part])
        degree = np.bincount(dst[part], minlength=m)
        mix, mean_links = _mixing(nm.constant(1.0 / degree[dst[part]]), src[part], dst[part], edge_links, m)
        relations.append(RelationEdges(src[part], dst[part], edge_links, mix, mean_links))

    return PreparedGraph(graph=graph, features=nm.constant(graph.node_features), relations=relations)


@dataclass(eq=False)
class HopState:
    """Everything one hop produced. ``t=0`` is the freshly initialized state;
    read/attention/scores/contexts appear from the first real hop on."""

    t: int
    controller: Tensor
    memory: Tensor
    read: Tensor | None = None
    attention: Tensor | None = None
    scores: Tensor | None = None
    contexts: dict[int, Tensor] | None = None


def init_state(
    prepared: PreparedGraph,
    query: np.ndarray,
    params: ModelParams,
    *,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> HopState:
    """Read the query into the controller and load atom features into the
    memory, one node per cell. Dropout, when training, hits this first step."""
    cfg = params.config
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (cfg.query_dim,):
        raise nm.DimensionError(f"query has shape {q.shape}, model expects ({cfg.query_dim},)")
    controller = nm.relu(nm.linear_sum([(nm.constant(q), params["query_in.weight"])],
                                       bias=params["query_in.bias"]))
    if cfg.raw_embedding:
        memory = nm.relu(prepared.features)
    else:
        memory = nm.relu(nm.linear_sum([(prepared.features, params["embed.weight"])],
                                       bias=params["embed.bias"]))
    controller = nm.dropout(controller, dropout_rate, rng, training)
    memory = nm.dropout(memory, dropout_rate, rng, training)
    return HopState(t=0, controller=controller, memory=memory)


def attentive_read(state: HopState, params: ModelParams) -> tuple[Tensor, Tensor, Tensor]:
    """Soft attention over the memory of the previous hop.

    Every cell is scored by a shared vector against a tanh blend of the
    cell and the controller state; softmax over cells gives the weights and
    the read vector is the weighted sum of cells. Returns (read, weights,
    pre-softmax scores).
    """
    if state.memory.shape[0] == 0:
        raise ValueError("attentive read over an empty memory (no nodes)")
    blend = nm.tanh(nm.linear_sum(
        [(state.memory, params["attn.cell"]), (state.controller, params["attn.ctrl"])],
        bias=params["attn.bias"],
    ))
    scores = nm.matmul(blend, params["attn.score"])
    weights = nm.softmax(scores)
    read = nm.matmul(weights, state.memory)
    return read, weights, scores


def controller_step(state: HopState, read: Tensor, params: ModelParams) -> Tensor:
    """Gated recurrent update of the controller from the read vector."""
    proposal = nm.relu(nm.linear_sum(
        [(state.controller, params["ctrl.self"]), (read, params["ctrl.read"])],
        bias=params["ctrl.bias"],
    ))
    gate = nm.sigmoid(nm.linear_sum(
        [(state.controller, params["ctrl_gate.self"]), (read, params["ctrl_gate.read"])],
        bias=params["ctrl_gate.bias"],
    ))
    return nm.lerp(gate, proposal, state.controller)


def _neighbor_contexts(
    prepared: PreparedGraph,
    memory: Tensor,
    params: ModelParams,
) -> dict[int, Tensor]:
    """Per-relation neighbor context rows [cell state, link features].

    Each node mixes its neighbors with weights that sum to one: 1/deg in
    uniform mode, and in learned mode a softmax, over each node's in-edges,
    of edge scores from a small attention head on [neighbor cell, own cell].
    Nodes without neighbors under a relation get zero rows.
    """
    learned = params.config.neighbor_mode == "learned"
    contexts: dict[int, Tensor] = {}
    for r, rel in enumerate(prepared.relations):
        mix, links = rel.uniform_mix, rel.uniform_links
        if learned and rel.src.size:
            blend = nm.tanh(nm.linear_sum(
                [(nm.take_rows(memory, rel.src), params["nbr.cell"]),
                 (nm.take_rows(memory, rel.dst), params["nbr.self"])],
                bias=params["nbr.bias"],
            ))
            weights = nm.segment_softmax(nm.matmul(blend, params["nbr.score"]), rel.dst, prepared.n_nodes)
            mix, links = _mixing(weights, rel.src, rel.dst, rel.links, prepared.n_nodes)
        contexts[r] = nm.concat([nm.matmul(mix, memory), links], axis=1)
    return contexts


def memory_step(
    state: HopState,
    controller: Tensor,
    params: ModelParams,
    prepared: PreparedGraph,
) -> tuple[Tensor, dict[int, Tensor]]:
    """Gated update of every cell from its past value, the controller write,
    and the relation-typed neighbor contexts. Also returns the contexts."""
    cfg = params.config
    contexts = _neighbor_contexts(prepared, state.memory, params)
    proposal_terms = [(state.memory, params["mem.self"]), (controller, params["mem.ctrl"])]
    gate_terms = [(state.memory, params["mem_gate.self"]), (controller, params["mem_gate.ctrl"])]
    for r in range(cfg.n_relations):
        proposal_terms.append((contexts[r], params[f"mem.rel{r}"]))
        gate_terms.append((contexts[r], params[f"mem_gate.rel{r}"]))
    proposal = nm.relu(nm.linear_sum(proposal_terms, bias=params["mem.bias"]))
    gate = nm.sigmoid(nm.linear_sum(gate_terms, bias=params["mem_gate.bias"]))
    return nm.lerp(gate, proposal, state.memory), contexts


@dataclass(eq=False)
class ForwardResult:
    probability: Tensor
    states: list[HopState]

    def attention_trace(self) -> list[list[float]]:
        """Per-hop per-cell attention weights, for dumping."""
        return [s.attention.data.tolist() for s in self.states if s.attention is not None]


def forward(
    graph: MolecularGraph | PreparedGraph,
    query: np.ndarray,
    params: ModelParams,
    hops: int,
    *,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> ForwardResult:
    """Run init, ``hops`` reasoning steps, and the output head.

    Deterministic for fixed inputs and generator state. When training,
    dropout is applied at the first step (after initialization) and at the
    last step (after the final hop's updates), never inside the attention.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    prepared = graph if isinstance(graph, PreparedGraph) else prepare_graph(graph, params.config)
    state = init_state(prepared, query, params, dropout_rate=dropout_rate, rng=rng, training=training)
    states = [state]
    for t in range(1, hops + 1):
        read, weights, scores = attentive_read(state, params)
        controller = controller_step(state, read, params)
        memory, contexts = memory_step(state, controller, params, prepared)
        if t == hops:
            controller = nm.dropout(controller, dropout_rate, rng, training)
            memory = nm.dropout(memory, dropout_rate, rng, training)
        state = HopState(t=t, controller=controller, memory=memory, read=read,
                         attention=weights, scores=scores, contexts=contexts)
        states.append(state)
    logit = nm.add(nm.matmul(params["out.weight"], state.controller), params["out.bias"])
    return ForwardResult(probability=nm.sigmoid(logit), states=states)
