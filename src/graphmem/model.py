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

Every stage runs on a pack, the disjoint union of one or more graphs (see
:class:`PreparedGraph`): one memory row per cell of every graph and one
controller row per graph, so one tape node serves the whole pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    def frozen(self) -> "ModelParams":
        """The same parameters as constants sharing these arrays: a forward
        on them records no tape, and later updates show through."""
        return ModelParams(self.config, {name: nm.constant(t.data) for name, t in self.tensors.items()})

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
    """The directed edges of one relation in a pack, each bond in both
    directions, numbered by pack row and grouped by destination.

    ``links`` holds each edge's link features. ``uniform`` holds the
    constant per-edge weights 1/deg(dst) and ``uniform_links`` the (N, k_b)
    mean link features of each node under them; a node without edges under
    the relation gets a zero row.
    """

    src: np.ndarray
    dst: np.ndarray
    links: Tensor
    uniform: Tensor
    uniform_links: Tensor


@dataclass(eq=False)
class PreparedGraph:
    """A pack: the disjoint union of one or more graphs, with the constants
    every hop reuses.

    The node rows of all graphs are stacked in order: graph ``b`` owns rows
    ``bounds[b]:bounds[b+1]`` of ``features`` and of the memory, and
    ``segments`` holds each row's graph. The per-relation edge lists use
    these row numbers, so no edge joins two graphs. A single graph is a
    pack of one; :func:`pack` joins packs.
    """

    features: Tensor
    bounds: np.ndarray
    segments: np.ndarray
    relations: list[RelationEdges]

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_graphs(self) -> int:
        return self.bounds.size - 1


def prepare_graph(graph: MolecularGraph, config: ModelConfig) -> PreparedGraph:
    """Precompute the constant tensors one graph contributes to every hop,
    as a pack of one."""
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
        uniform = nm.constant(1.0 / np.bincount(dst[part], minlength=m)[dst[part]])
        mean_links = nm.gather_sum(edge_links, uniform, np.arange(hi - lo), dst[part], m)
        relations.append(RelationEdges(src[part], dst[part], edge_links, uniform, mean_links))

    return PreparedGraph(features=nm.constant(graph.node_features), bounds=np.array([0, m]),
                         segments=np.zeros(m, dtype=np.intp), relations=relations)


def pack(graphs: Sequence[PreparedGraph]) -> PreparedGraph:
    """The disjoint union of prepared graphs (or packs), in order: node rows
    stacked, edges offset by their graph's first row, segment ids offset
    by the graphs before."""
    if not graphs:
        raise ValueError("pack of no graphs")
    if len(graphs) == 1:
        return graphs[0]
    if len({len(g.relations) for g in graphs}) != 1:
        raise nm.DimensionError("packed graphs were prepared for different relation counts")
    rows = np.cumsum([0] + [g.n_nodes for g in graphs])
    firsts = np.cumsum([0] + [g.n_graphs for g in graphs])

    def stack(arrays) -> Tensor:
        return nm.constant(np.concatenate(list(arrays)))

    relations = []
    for parts in zip(*(g.relations for g in graphs)):
        relations.append(RelationEdges(
            src=np.concatenate([p.src + row for p, row in zip(parts, rows)]),
            dst=np.concatenate([p.dst + row for p, row in zip(parts, rows)]),
            links=stack(p.links.data for p in parts),
            uniform=stack(p.uniform.data for p in parts),
            uniform_links=stack(p.uniform_links.data for p in parts),
        ))
    return PreparedGraph(
        features=stack(g.features.data for g in graphs),
        bounds=np.concatenate([[0]] + [g.bounds[1:] + row for g, row in zip(graphs, rows)]),
        segments=np.concatenate([g.segments + first for g, first in zip(graphs, firsts)]),
        relations=relations,
    )


@dataclass(eq=False)
class HopState:
    """Everything one hop produced, for every graph of a pack: controller
    (B, k_h), memory (N, k_m), read (B, k_m), attention and scores (N,).
    ``t=0`` is the freshly initialized state; read/attention/scores/contexts
    appear from the first real hop on."""

    t: int
    controller: Tensor
    memory: Tensor
    read: Tensor | None = None
    attention: Tensor | None = None
    scores: Tensor | None = None
    contexts: dict[int, Tensor] | None = None


def _dropout(x: Tensor, bounds: np.ndarray, rate: float, rng, training: bool) -> Tensor:
    """Dropout with each graph's rows masked from that graph's own generator;
    one generator serves a pack of one."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    return nm.dropout(x, rate, rngs, training, bounds)


def init_state(
    prepared: PreparedGraph,
    query: np.ndarray,
    params: ModelParams,
    *,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    training: bool = False,
) -> HopState:
    """Read the query into one controller row per graph and load atom
    features into the memory, one node per cell. ``query`` is one (q,)
    vector for every graph or one (B, q) row per graph. Dropout, when
    training, hits this first step; ``rng`` is one generator per graph."""
    cfg = params.config
    n_graphs = prepared.n_graphs
    q = np.asarray(query, dtype=np.float64)
    if q.shape not in ((cfg.query_dim,), (n_graphs, cfg.query_dim)):
        raise nm.DimensionError(
            f"query has shape {q.shape}, model expects ({cfg.query_dim},) or ({n_graphs}, {cfg.query_dim})"
        )
    q = np.broadcast_to(q, (n_graphs, cfg.query_dim))
    controller = nm.linear_sum([(nm.constant(q), params["query_in.weight"])],
                               bias=params["query_in.bias"], activation="relu")
    if cfg.raw_embedding:
        memory = nm.relu(prepared.features)
    else:
        memory = nm.linear_sum([(prepared.features, params["embed.weight"])],
                               bias=params["embed.bias"], activation="relu")
    controller = _dropout(controller, np.arange(n_graphs + 1), dropout_rate, rng, training)
    memory = _dropout(memory, prepared.bounds, dropout_rate, rng, training)
    return HopState(t=0, controller=controller, memory=memory)


def attentive_read(state: HopState, params: ModelParams,
                   prepared: PreparedGraph | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Soft attention over the memory of the previous hop, per graph.

    Every cell is scored by a shared vector against a tanh blend of the
    cell and its graph's controller row; a softmax over each graph's cells
    gives the weights and the read row is the weighted sum of those cells.
    Without ``prepared`` the memory is one graph. Returns (read, weights,
    pre-softmax scores).
    """
    n = state.memory.shape[0]
    if prepared is None:
        segments, n_graphs, empty = np.zeros(n, dtype=np.intp), 1, n == 0
    else:
        segments, n_graphs = prepared.segments, prepared.n_graphs
        empty = bool(np.any(np.diff(prepared.bounds) == 0))
    if empty:
        raise ValueError("attentive read over an empty memory (no nodes)")
    scores = nm.linear_sum(
        [(state.memory, params["attn.cell"]), (state.controller, params["attn.ctrl"], segments)],
        bias=params["attn.bias"], activation="tanh", project=params["attn.score"],
    )
    weights = nm.segment_softmax(scores, segments, n_graphs)
    read = nm.gather_sum(state.memory, weights, np.arange(n), segments, n_graphs)
    return read, weights, scores


def controller_step(state: HopState, read: Tensor, params: ModelParams) -> Tensor:
    """Gated recurrent update of every controller row from its read row."""
    proposal = nm.linear_sum(
        [(state.controller, params["ctrl.self"]), (read, params["ctrl.read"])],
        bias=params["ctrl.bias"], activation="relu",
    )
    gate = nm.linear_sum(
        [(state.controller, params["ctrl_gate.self"]), (read, params["ctrl_gate.read"])],
        bias=params["ctrl_gate.bias"], activation="sigmoid",
    )
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
    n = prepared.n_nodes
    contexts: dict[int, Tensor] = {}
    for r, rel in enumerate(prepared.relations):
        weights, links = rel.uniform, rel.uniform_links
        if learned and rel.src.size:
            scores = nm.linear_sum(
                [(memory, params["nbr.cell"], rel.src), (memory, params["nbr.self"], rel.dst)],
                bias=params["nbr.bias"], activation="tanh", project=params["nbr.score"],
            )
            weights = nm.segment_softmax(scores, rel.dst, n)
            links = nm.gather_sum(rel.links, weights, np.arange(rel.src.size), rel.dst, n)
        contexts[r] = nm.gather_sum(memory, weights, rel.src, rel.dst, n, tail=links)
    return contexts


def memory_step(
    state: HopState,
    controller: Tensor,
    params: ModelParams,
    prepared: PreparedGraph,
) -> tuple[Tensor, dict[int, Tensor]]:
    """Gated update of every cell from its past value, its graph's controller
    row, and the relation-typed neighbor contexts. Also returns the contexts."""
    cfg = params.config
    contexts = _neighbor_contexts(prepared, state.memory, params)
    segments = prepared.segments
    proposal_terms = [(state.memory, params["mem.self"]), (controller, params["mem.ctrl"], segments)]
    gate_terms = [(state.memory, params["mem_gate.self"]), (controller, params["mem_gate.ctrl"], segments)]
    for r in range(cfg.n_relations):
        proposal_terms.append((contexts[r], params[f"mem.rel{r}"]))
        gate_terms.append((contexts[r], params[f"mem_gate.rel{r}"]))
    proposal = nm.linear_sum(proposal_terms, bias=params["mem.bias"], activation="relu")
    gate = nm.linear_sum(gate_terms, bias=params["mem_gate.bias"], activation="sigmoid")
    return nm.lerp(gate, proposal, state.memory), contexts


@dataclass(eq=False)
class ForwardResult:
    """``probability`` is (B, 1), one row per graph of the pack."""

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
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    training: bool = False,
) -> ForwardResult:
    """Run init, ``hops`` reasoning steps, and the output head on a graph
    or a pack.

    Deterministic for fixed inputs and generator states. When training,
    dropout is applied at the first step (after initialization) and at the
    last step (after the final hop's updates), never inside the attention;
    each graph draws its masks from its own generator in ``rng``, so a
    graph gets the same masks alone or in a pack.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    prepared = graph if isinstance(graph, PreparedGraph) else prepare_graph(graph, params.config)
    state = init_state(prepared, query, params, dropout_rate=dropout_rate, rng=rng, training=training)
    states = [state]
    for t in range(1, hops + 1):
        read, weights, scores = attentive_read(state, params, prepared)
        controller = controller_step(state, read, params)
        memory, contexts = memory_step(state, controller, params, prepared)
        if t == hops:
            controller = _dropout(controller, np.arange(prepared.n_graphs + 1), dropout_rate, rng, training)
            memory = _dropout(memory, prepared.bounds, dropout_rate, rng, training)
        state = HopState(t=t, controller=controller, memory=memory, read=read,
                         attention=weights, scores=scores, contexts=contexts)
        states.append(state)
    probability = nm.linear_sum([(state.controller, params["out.weight"])],
                                bias=params["out.bias"], activation="sigmoid")
    return ForwardResult(probability=probability, states=states)
