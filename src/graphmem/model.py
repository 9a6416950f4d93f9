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

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .molgraph import MolecularGraph, atom_one_hot, link_feature_dim
from .numerics import Tensor

NEIGHBOR_MODES = ("uniform", "learned")
# The widest memory_size and controller_size. With both at w, parameters,
# gradients and Adam's two moments take about 32 * (2 R + 10) * w**2 bytes:
# about 0.6 GiB at this bound with R = 4, and about 10 GB at 4096, where
# the allocation would fail with a traceback instead of a refused setting.
MAX_WIDTH = 1024
# The most hops. A hop's tape keeps about 3 * memory_size + controller_size
# floats per cell, a learned hop also 2 R per cell and controller_size per
# directed edge (training.PACK_CELLS): at R = 4, width 32 and 512 cells of
# two directed edges each, 0.52 MB a uniform hop and 0.82 MB a learned one,
# 82 MB at this bound, and 164 GB at 200000 hops, where the tape would fail
# with a traceback instead of a refused setting.
MAX_HOPS = 100


def check_width(name: str, value: int) -> None:
    """Refuse a ``memory_size`` or ``controller_size`` below 1 or above
    :data:`MAX_WIDTH` with a ValueError naming it."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > MAX_WIDTH:
        raise ValueError(f"{name} must be <= {MAX_WIDTH}, got {value}")


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

    def __post_init__(self):
        floors = {"node_feat_dim": 1, "query_dim": 1, "n_relations": 0}
        for name in (*floors, "link_feat_dim", "memory_size", "controller_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if name in floors and value < floors[name]:
                raise ValueError(f"{name} must be >= {floors[name]}, got {value}")
            if name.endswith("_size"):
                check_width(name, value)
        # the relation count fixes link_feat_dim; it and molgraph.link_feature_dim
        # go once perfbench stops setting it (ROADMAP item 1)
        if self.link_feat_dim != link_feature_dim(self.n_relations):
            raise ValueError(f"link_feat_dim must be {self.n_relations + 1} (n_relations + 1), got {self.link_feat_dim}")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {self.neighbor_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

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

    def arrays(self) -> dict[str, np.ndarray]:
        """The live parameter arrays; mutating them updates the model."""
        return {name: t.data for name, t in self.tensors.items()}

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the parameters, after refusing (ValueError,
        a message that reads after the arrays' source) a missing, extra or
        misshapen parameter; nothing is copied then."""
        for name, t in self.tensors.items():
            if name not in arrays:
                raise ValueError(f"lacks parameter {name!r}")
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"holds parameter {name!r} of shape {arrays[name].shape}, "
                                 f"but the model needs {t.data.shape}")
        for name in arrays:
            if name not in self.tensors:
                raise ValueError(f"holds parameter {name!r}, which the model does not have")
        for name, t in self.tensors.items():
            t.data[...] = arrays[name]

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
    def initialize(cls, config: ModelConfig, seed: int) -> "ModelParams":
        """Seeded init: uniform +-sqrt(6/(fan_in+fan_out)) matrices, zero
        biases, zero attention score vectors.

        The gated updates' weights are stored as :func:`numerics.gated_update
        <graphmem.numerics.gated_update>` takes them: proposal rows over gate
        rows, relation ``r`` in column block ``r`` of ``mem.gated.nbr`` and
        in columns ``r`` and ``R + r`` of ``mem.gated.link``, as
        :func:`~graphmem.numerics.link_sum` lays out its rows. Each proposal,
        gate and relation block is drawn at its own limit."""
        rng = np.random.default_rng(seed)
        k_m, k_h = config.memory_size, config.controller_size
        k_x, k_b = config.node_feat_dim, config.n_relations + 1

        def draw(rows: int, cols: int) -> np.ndarray:
            return nm.glorot_uniform(rng, rows, cols)

        def mat(rows: int, cols: int) -> Tensor:
            return nm.parameter(draw(rows, cols))

        def zeros(*shape: int) -> Tensor:
            return nm.parameter(np.zeros(shape))

        def gated(proposal: np.ndarray, gate: np.ndarray) -> Tensor:
            return nm.parameter(np.concatenate([proposal, gate]))

        t: dict[str, Tensor] = {}
        t["query_in.weight"] = mat(k_h, config.query_dim)
        t["query_in.bias"] = zeros(k_h)
        t["embed.weight"] = mat(k_m, k_x)
        t["embed.bias"] = zeros(k_m)
        t["attn.cell"] = mat(k_h, k_m)
        t["attn.ctrl"] = mat(k_h, k_h)
        t["attn.bias"] = zeros(k_h)
        t["attn.score"] = zeros(k_h)
        # each update draws its proposal's weights, then its gate's
        self_p, read_p, self_g, read_g = draw(k_h, k_h), draw(k_h, k_m), draw(k_h, k_h), draw(k_h, k_m)
        t["ctrl.gated.self"] = gated(self_p, self_g)
        t["ctrl.gated.read"] = gated(read_p, read_g)
        t["ctrl.gated.bias"] = zeros(2 * k_h)
        self_p, ctrl_p, self_g, ctrl_g = draw(k_m, k_m), draw(k_m, k_h), draw(k_m, k_m), draw(k_m, k_h)
        t["mem.gated.self"] = gated(self_p, self_g)
        t["mem.gated.ctrl"] = gated(ctrl_p, ctrl_g)
        t["mem.gated.bias"] = zeros(2 * k_m)
        # relation r's [cell | link] proposal block, then its gate block; as
        # (2 k_m, R, k_m + k_b), entry [i, r] is row i of relation r's [proposal; gate]
        blocks = np.array([draw(k_m, k_m + k_b) for _ in range(2 * config.n_relations)])
        rows = blocks.reshape(config.n_relations, 2 * k_m, k_m + k_b).transpose(1, 0, 2)
        t["mem.gated.nbr"] = nm.parameter(rows[:, :, :k_m].reshape(2 * k_m, -1))
        # only the link columns link_sum fills, one-hot r and the ring, are kept; whole
        # blocks are drawn, so the RNG stream and every kept value match the full blocks'
        ones = rows[:, :, k_m:-1].diagonal(axis1=1, axis2=2)  # [i, r] is rows[i, r, k_m + r]
        t["mem.gated.link"] = nm.parameter(np.concatenate([ones, rows[:, :, -1]], axis=1))
        if config.neighbor_mode == "learned":
            t["nbr.cell"] = mat(k_h, k_m)
            t["nbr.self"] = mat(k_h, k_m)
            t["nbr.bias"] = zeros(k_h)
            t["nbr.score"] = zeros(k_h)
        t["out.weight"] = mat(1, k_h)
        t["out.bias"] = zeros(1)
        return cls(config, t)


@dataclass(eq=False)
class PreparedGraph:
    """A pack: the disjoint union of one or more graphs, with the constants
    every hop reuses, built by :func:`pack`.

    The one-hot node rows of all graphs are stacked in order into
    ``features`` (see :func:`pack`) and the memory; a single graph is a
    pack of one. ``slots`` is the pack's one layout (:class:`~graphmem.numerics.Slots`):
    graph ``b`` owns rows ``slots.bounds[b]:slots.bounds[b+1]``, and
    ``slots.segments`` holds each row's graph.

    The edges of every relation form one directed edge list in these row
    numbers, each bond in both directions, so no edge joins two graphs:
    edge ``e`` runs from ``slots.src[e]`` to ``slots.dst[e]`` under the
    0-based relation ``r``, and ``ring[e]`` is 1 when its bond lies in a
    ring and 0 otherwise; its key ``slots.keys[e] = dst[e] * R + r`` names
    its (destination, relation) pair. The edges are sorted by destination,
    then relation, then source. ``uniform`` holds the weights 1/deg_r(dst)
    that average each node's neighbours under one relation.

    An edge's link features are its relation's one-hot and then its ring
    flag, and each key's edge weights sum to one in both neighbour modes.
    So the link features summed per key are two numbers, 1 (a neighbour
    under the relation) and the weighted sum of the keyed edges' ring flags,
    as (N, 2R) rows, relation ``r`` in columns ``r`` and ``R + r`` (zero
    where the node has no neighbour): one :func:`~graphmem.numerics.link_sum`
    node of ``ring``, with no block product.

    The slots also give the graphs' row runs for the per-graph sums (the
    attention read and the controller rows' gradients), padded slots in
    size groups, with one kept block array, for the block products, and
    the gathers of the edges' ends, with their kept scatter indices, for
    the learned edge scorer. Both neighbour modes run every product the
    same way: it writes its edge weights into that array and multiplies.
    """

    features: Tensor
    ring: np.ndarray
    uniform: Tensor
    slots: nm.Slots

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_graphs(self) -> int:
        return self.slots.n_graphs


def check_graph(graph: MolecularGraph, config: ModelConfig) -> None:
    """Refuse a graph the model of ``config`` cannot run: one that is not
    featurized, whose slot width or relations do not fit the model, or
    with an element slot outside its width (which would set a degree
    column of its one-hot row)."""
    slots, width, k_x = graph.element_slots, graph.slot_width, graph.feature_width
    if k_x is None:
        raise ValueError("graph is not featurized; call molgraph.featurize first")
    if k_x != config.node_feat_dim:
        raise nm.DimensionError(f"node features have width {k_x} but the model embedding expects "
                                f"{config.node_feat_dim}")
    if slots.astype(np.uintp).max(initial=0) >= width:  # a slot below 0 wraps past the width
        atom = np.flatnonzero((slots < 0) | (slots >= width))[0]
        raise ValueError(f"atom {atom} has element slot {slots[atom]}, outside the slot width {width}")
    if graph.n_relations > config.n_relations:
        raise nm.DimensionError(
            f"graph uses {graph.n_relations} relations but the model has {config.n_relations}"
        )


def prepare_graph(graph: MolecularGraph, config: ModelConfig) -> PreparedGraph:
    """The constant tensors one graph contributes to every hop, as a pack
    of one, after :func:`check_graph` refuses a graph the model cannot
    run."""
    check_graph(graph, config)
    return pack([graph], config)


def pack(graphs: Sequence[MolecularGraph], config: ModelConfig) -> PreparedGraph:
    """The pack of featurized graphs, in order (see :class:`PreparedGraph`),
    built in one pass over all of them. The graphs must fit ``config``, as
    :func:`check_graph` checks: a pack checks only that it has graphs, and
    its slots refuse a graph without atoms, whose empty memory has nothing
    to attend over.

    Every bond is numbered by its graph's first row. One sort orders all
    directed edges: destinations grow with the graph, so each graph's edges
    keep the order they have in a pack of one, and each key's edges are
    summed in that order. A graph therefore gets the same constants, bit
    for bit, alone or in any pack. A graph's ring flags are searched when
    its first pack reads them and kept on the graph; its one-hot node rows
    (:func:`~graphmem.molgraph.atom_one_hot`) live with the pack.

    The slot map (:class:`~graphmem.numerics.Slots`) is built here once per
    pack; its block array, about ``8 R sum_g B_g m_g**2`` bytes for size
    groups of ``B_g`` graphs of width ``m_g``, is made by the pack's first
    block product and kept for the rest; the learned scorer's scatter
    index, ``8 E k_h`` bytes at each end of E edges, is likewise made by
    the pack's first backward and kept.
    """
    if not graphs:
        raise ValueError("pack of no graphs")
    n_relations = config.n_relations
    bounds = np.cumsum([0] + [graph.n_nodes for graph in graphs])
    n = int(bounds[-1])
    bonds = np.concatenate([graph.bonds for graph in graphs])
    ends = bonds[:, :2] + np.repeat(bounds[:-1], [len(graph.bonds) for graph in graphs])[:, None]
    ring = np.concatenate([graph.ring for graph in graphs])
    src = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = np.concatenate([ends[:, 0], ends[:, 1]])
    relation = np.concatenate([bonds[:, 2], bonds[:, 2]]) - 1
    keys = dst * n_relations + relation
    order = np.argsort(keys * n + src)  # by (dst, relation, src): unique, as no bond repeats
    src, keys = src[order], keys[order]
    return PreparedGraph(
        features=nm.constant(atom_one_hot(graphs)),
        ring=np.concatenate([ring, ring])[order].astype(np.float64),
        uniform=nm.constant(1.0 / np.bincount(keys, minlength=n * n_relations)[keys]),
        slots=nm.Slots(bounds, src, keys, n_relations),
    )


@dataclass(eq=False)
class HopState:
    """Everything one hop produced, for every graph of a pack: controller
    (B, k_h), memory (N, k_m), read (B, k_m) and attention (N,). ``t=0``
    is the freshly initialized state; read and attention appear from the
    first real hop on. The final hop of :func:`forward` has no memory
    (``None``): the output head reads only the controller, so that hop
    runs no memory update. The read keeps its value
    (:func:`graphmem.numerics.graph_sum`); the neighbour sums are not kept
    but made again in backward (:class:`graphmem.numerics.Neighbours`)."""

    t: int
    controller: Tensor
    memory: Tensor | None
    read: Tensor | None = None
    attention: Tensor | None = None


def init_state(prepared: PreparedGraph, query: np.ndarray, params: ModelParams) -> HopState:
    """Read the query into one controller row per graph and load atom
    features into the memory, one node per cell. ``query`` is one (q,)
    vector for every graph or one (B, q) row per graph."""
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
    memory = nm.linear_sum([(prepared.features, params["embed.weight"])],
                           bias=params["embed.bias"], activation="relu")
    return HopState(t=0, controller=controller, memory=memory)


def attentive_read(state: HopState, params: ModelParams,
                   prepared: PreparedGraph) -> tuple[Tensor, Tensor, Tensor]:
    """Soft attention over the memory of the previous hop, per graph.

    Every cell is scored by a shared vector against a tanh blend of the
    cell and its graph's controller row; a softmax over each graph's cells
    gives the weights and the read row is the weighted sum of those cells,
    a :func:`~graphmem.numerics.graph_sum` node over each graph's run of
    rows.
    The controller rows reach the cells through ``prepared.slots``, so
    their gradient is a per-graph sum too. Returns (read, weights,
    pre-softmax scores).
    """
    slots = prepared.slots
    scores = nm.linear_sum(
        [(state.memory, params["attn.cell"]), (state.controller, params["attn.ctrl"], slots)],
        bias=params["attn.bias"], activation="tanh", project=params["attn.score"],
    )
    weights = nm.segment_softmax(scores, slots.segments, slots.n_graphs)
    return nm.graph_sum(state.memory, weights, slots), weights, scores


def controller_step(state: HopState, read: Tensor, params: ModelParams) -> Tensor:
    """Gated recurrent update of every controller row from its read row,
    the read term of one gated update."""
    return nm.gated_update(
        [(state.controller, params["ctrl.gated.self"]), (read, params["ctrl.gated.read"])],
        params["ctrl.gated.bias"], state.controller,
    )


def _neighbor_weights(prepared: PreparedGraph, memory: Tensor, params: ModelParams) -> Tensor:
    """The weight of every edge in its destination's neighbour context.

    Each node mixes its neighbours under each relation with weights that
    sum to one: 1/deg in uniform mode, and in learned mode a softmax, over
    the node's in-edges under the relation, of edge scores from a small
    attention head on [neighbour cell, own cell]. The head reaches the
    edges' ends through the pack's kept gathers (``slots.at_src`` and
    ``slots.at_dst``), so its backward's scatter index is built once per
    pack.
    """
    slots = prepared.slots
    if params.config.neighbor_mode == "uniform":
        return prepared.uniform
    scores = nm.linear_sum(
        [(memory, params["nbr.cell"], slots.at_src), (memory, params["nbr.self"], slots.at_dst)],
        bias=params["nbr.bias"], activation="tanh", project=params["nbr.score"],
    )
    return nm.segment_softmax(scores, slots.keys, prepared.n_nodes * slots.n_relations)


def _memory_bias(params: ModelParams, prepared: PreparedGraph) -> Tensor:
    """The memory update's bias. In learned mode it is ``mem.gated.bias``
    itself. In uniform mode the link term is the same on every hop, so it
    joins the bias as one (N, 2 k_m) row per cell: the link features summed
    under the uniform weights (:func:`~graphmem.numerics.link_sum`, a
    constant) projected by ``mem.gated.link``."""
    if params.config.neighbor_mode == "learned":
        return params["mem.gated.bias"]
    links = nm.link_sum(prepared.uniform, prepared.ring, prepared.slots)
    return nm.linear_sum([(links, params["mem.gated.link"])], bias=params["mem.gated.bias"])


def memory_step(state: HopState, controller: Tensor, params: ModelParams, prepared: PreparedGraph,
                bias: Tensor) -> Tensor:
    """Gated update of every cell from its past value, its graph's controller
    row, and the relation-typed neighbour contexts [weighted neighbour
    cells, weighted link features], zero under a relation where the cell
    has no neighbours.

    The neighbour cells of every relation are summed into (N, R * k_m)
    rows, as per-graph block products over ``prepared.slots`` that write
    this hop's edge weights, uniform or learned, into the pack's one block
    array, and projected at once by all relations' weights side by side: a
    :class:`~graphmem.numerics.Neighbours` term, which keeps no sums and
    makes them again in backward. The summed link features
    (:func:`~graphmem.numerics.link_sum`, a keyed sum with no block
    product) keep their (N, 2R) rows and are projected the same way: here
    in learned mode, and in ``bias`` in uniform mode, where they do not
    change from hop to hop. ``bias`` is :func:`_memory_bias` of ``params``
    and ``prepared``, which :func:`forward` makes once per pass.
    """
    weights = _neighbor_weights(prepared, state.memory, params)
    terms: list[tuple] = [
        (state.memory, params["mem.gated.self"]),
        (controller, params["mem.gated.ctrl"], prepared.slots),
        (state.memory, params["mem.gated.nbr"], nm.Neighbours(weights, prepared.slots)),
    ]
    if params.config.neighbor_mode == "learned":
        links = nm.link_sum(weights, prepared.ring, prepared.slots)
        terms.append((links, params["mem.gated.link"]))
    return nm.gated_update(terms, bias, state.memory)


@dataclass(eq=False)
class ForwardResult:
    """``probability`` is (B, 1), one row per graph of the pack."""

    probability: Tensor
    states: list[HopState]

    def attention_trace(self) -> list[list[float]]:
        """Per-hop per-cell attention weights, for dumping."""
        return [s.attention.data.tolist() for s in self.states if s.attention is not None]


def _dropout_masks(prepared: PreparedGraph, config: ModelConfig, rate: float,
                   rng: np.random.Generator | Sequence[np.random.Generator] | None) -> tuple[np.ndarray, ...]:
    """The inverted-dropout masks of one training pass (see :func:`forward`):
    (B, k_h) for the first controller, (N, k_m) for the cells and (B, k_h)
    for the final controller, each entry 0 or ``1 / (1 - rate)``."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if rngs is None:
        raise ValueError("dropout in training mode needs random generators")
    if len(rngs) != prepared.n_graphs:
        raise ValueError(f"dropout over {prepared.n_graphs} graphs needs as many generators, got {len(rngs)}")
    k_h, k_m = config.controller_size, config.memory_size
    keep = [(gen.random(2 * k_h + m * k_m) >= rate) / (1.0 - rate)
            for gen, m in zip(rngs, prepared.slots.counts.tolist())]
    return (np.stack([row[:k_h] for row in keep]), np.concatenate([row[k_h:-k_h] for row in keep]).reshape(-1, k_m),
            np.stack([row[-k_h:] for row in keep]))


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

    Deterministic for fixed inputs and generator states. ``dropout_rate``
    must lie in [0, 1), at inference too. When training at a rate above 0,
    dropout hits the first step (after initialization) and the final
    controller, never the attention. ``rng`` is one generator per graph,
    or one ``Generator`` for a pack of one. Before the first hop each graph
    draws all its masks in one call, ``2 k_h + m k_m`` doubles for its ``m``
    cells, in the order they are applied: its first controller row, its
    cells, its final controller row. So a graph gets the same masks alone
    or in a pack. The memory bias (:func:`_memory_bias`) is made once, for
    every hop.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    prepared = graph if isinstance(graph, PreparedGraph) else prepare_graph(graph, params.config)
    masks = _dropout_masks(prepared, params.config, dropout_rate, rng) if training and dropout_rate > 0.0 else None
    bias = _memory_bias(params, prepared)
    state = init_state(prepared, query, params)
    if masks is not None:
        state.controller, state.memory = nm.dropout(state.controller, masks[0]), nm.dropout(state.memory, masks[1])
    states = [state]
    for t in range(1, hops + 1):
        read, weights, _ = attentive_read(state, params, prepared)
        controller = controller_step(state, read, params)
        if t < hops:
            memory = memory_step(state, controller, params, prepared, bias)
        else:  # the output head reads only the controller
            memory = None
            if masks is not None:
                controller = nm.dropout(controller, masks[2])
        state = HopState(t=t, controller=controller, memory=memory, read=read, attention=weights)
        states.append(state)
    probability = nm.linear_sum([(state.controller, params["out.weight"])],
                                bias=params["out.bias"], activation="sigmoid")
    return ForwardResult(probability=probability, states=states)
