"""Certify the exact gradients against central finite differences.

Random small graphs, random parameters, dropout off: the whole-model loss
is differentiated both ways and the worst relative error over every
parameter coordinate is reported. Each graph is certified alone, and then
all of them as one pack, together with a single-atom graph and a graph
with an isolated node, under the batch-mean loss that training uses. This
is the end-to-end contract for the tape in :mod:`graphmem.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ModelParams, PreparedGraph, forward, pack, prepare_graph
from .molgraph import (
    SYNTHETIC_ALPHABET,
    MolecularGraph,
    featurize,
    link_feature_dim,
    node_feature_dim,
    random_graph,
)
from .numerics import finite_difference_gradient, max_relative_error
from .training import cross_entropy

DEFAULT_THRESHOLD = 1e-4


@dataclass
class GradcheckReport:
    max_relative_error: float
    worst_parameter: str
    threshold: float
    per_graph: list[float] = field(default_factory=list)
    pack_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= self.threshold

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max relative error {self.max_relative_error:.3e} "
            f"(threshold {self.threshold:.1e}, worst parameter {self.worst_parameter!r}, "
            f"{len(self.per_graph)} graphs alone and in one pack)"
        )


def _random_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    params = ModelParams.initialize(config, seed=int(rng.integers(0, 2**31)))
    # zero-initialized score vectors would hide attention gradients; perturb them
    for name in ("attn.score", "nbr.score"):
        if name in params.tensors:
            params[name].data[...] = rng.normal(0.0, 0.5, size=params[name].data.shape)
    return params


def _certify(prepared: PreparedGraph, queries: np.ndarray, labels: list[int], params: ModelParams,
             hops: int, eps: float) -> tuple[float, str]:
    """Worst relative error of the batch-mean cross-entropy gradient."""
    scale = 1.0 / len(labels)
    frozen = params.frozen()

    def loss_value() -> float:
        loss = cross_entropy(forward(prepared, queries, frozen, hops).probability, labels)
        return float(loss.data.sum()) * scale

    params.zero_grads()
    cross_entropy(forward(prepared, queries, params, hops).probability, labels).backward(seed=scale)
    exact = params.grads()
    estimate = finite_difference_gradient(loss_value, params.arrays(), eps=eps)
    return max_relative_error(exact, estimate)


def run_gradient_check(
    seed: int = 0,
    graphs: int = 5,
    max_nodes: int = 8,
    n_relations: int = 3,
    hops: int = 3,
    hidden: int = 8,
    eps: float = 1e-5,
    threshold: float = DEFAULT_THRESHOLD,
    neighbor_mode: str = "uniform",
) -> GradcheckReport:
    rng = np.random.default_rng(seed)
    vocab = SYNTHETIC_ALPHABET
    config = ModelConfig(
        node_feat_dim=node_feature_dim(vocab),
        link_feat_dim=link_feature_dim(n_relations),
        n_relations=n_relations,
        query_dim=2,
        memory_size=hidden,
        controller_size=hidden,
        neighbor_mode=neighbor_mode,
    )

    def one_hot_query() -> np.ndarray:
        query = np.zeros(2)
        query[int(rng.integers(0, 2))] = 1.0
        return query

    worst = 0.0
    worst_name = ""
    per_graph: list[float] = []
    drawn: list[MolecularGraph] = []
    for _ in range(graphs):
        graph = random_graph(rng, 3, max_nodes, n_relations)
        drawn.append(graph)
        params = _random_params(config, rng)
        query = one_hot_query()
        label = int(rng.integers(0, 2))
        err, name = _certify(prepare_graph(featurize(graph, vocab), config), query[None], [label],
                             params, hops, eps)
        per_graph.append(err)
        if err >= worst:
            worst, worst_name = err, name

    first = random_graph(rng, 3, max_nodes, n_relations) if not drawn else drawn[0]
    edge_cases = [
        MolecularGraph.from_bonds([vocab[0]], [], n_relations),
        # the last node has no bond under any relation
        MolecularGraph.from_bonds([*first.symbols, vocab[1]], first.bonds, n_relations),
    ]
    members = drawn + edge_cases
    params = _random_params(config, rng)
    queries = np.stack([one_hot_query() for _ in members])
    labels = [int(rng.integers(0, 2)) for _ in members]
    packed = pack([featurize(g, vocab) for g in members], config)
    pack_error, name = _certify(packed, queries, labels, params, hops, eps)
    if pack_error >= worst:
        worst, worst_name = pack_error, name
    return GradcheckReport(
        max_relative_error=worst,
        worst_parameter=worst_name,
        threshold=threshold,
        per_graph=per_graph,
        pack_error=pack_error,
    )
