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

# The fixed shapes the check certifies: graphs of 3 to MAX_NODES atoms over
# N_RELATIONS relations, a model of width HIDDEN run for HOPS hops, and
# central differences of step EPS. It passes when the worst relative error
# is at most THRESHOLD.
MAX_NODES = 8
N_RELATIONS = 3
HOPS = 3
HIDDEN = 8
EPS = 1e-5
THRESHOLD = 1e-4


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


def _certify(prepared: PreparedGraph, queries: np.ndarray, labels: list[int],
             params: ModelParams) -> tuple[float, str]:
    """Worst relative error of the batch-mean cross-entropy gradient."""
    scale = 1.0 / len(labels)
    frozen = params.frozen()

    def loss_value() -> float:
        loss = cross_entropy(forward(prepared, queries, frozen, HOPS).probability, labels)
        return float(loss.data.sum()) * scale

    params.zero_grads()
    cross_entropy(forward(prepared, queries, params, HOPS).probability, labels).backward(seed=scale)
    exact = params.grads()
    estimate = finite_difference_gradient(loss_value, params.arrays(), eps=EPS)
    return max_relative_error(exact, estimate)


def run_gradient_check(seed: int = 0, graphs: int = 5, neighbor_mode: str = "uniform") -> GradcheckReport:
    """Certify ``graphs`` random graphs drawn from ``seed``, each alone and
    then all in one pack, at the module's fixed shapes, under
    ``neighbor_mode``. With no graphs the pack holds only the edge cases; a
    negative count is a ValueError."""
    if graphs < 0:
        raise ValueError(f"graphs must be >= 0, got {graphs}")
    rng = np.random.default_rng(seed)
    vocab = SYNTHETIC_ALPHABET
    config = ModelConfig(
        node_feat_dim=node_feature_dim(vocab),
        link_feat_dim=link_feature_dim(N_RELATIONS),
        n_relations=N_RELATIONS,
        query_dim=2,
        memory_size=HIDDEN,
        controller_size=HIDDEN,
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
        graph = random_graph(rng, 3, MAX_NODES, N_RELATIONS)
        drawn.append(graph)
        params = _random_params(config, rng)
        query = one_hot_query()
        label = int(rng.integers(0, 2))
        err, name = _certify(prepare_graph(featurize(graph, vocab), config), query[None], [label], params)
        per_graph.append(err)
        if err >= worst:
            worst, worst_name = err, name

    first = random_graph(rng, 3, MAX_NODES, N_RELATIONS) if not drawn else drawn[0]
    edge_cases = [
        MolecularGraph.from_bonds([vocab[0]], [], N_RELATIONS),
        # the last node has no bond under any relation
        MolecularGraph.from_bonds([*first.symbols, vocab[1]], first.bonds, N_RELATIONS),
    ]
    members = drawn + edge_cases
    params = _random_params(config, rng)
    queries = np.stack([one_hot_query() for _ in members])
    labels = [int(rng.integers(0, 2)) for _ in members]
    packed = pack([featurize(g, vocab) for g in members], config)
    pack_error, name = _certify(packed, queries, labels, params)
    if pack_error >= worst:
        worst, worst_name = pack_error, name
    return GradcheckReport(
        max_relative_error=worst,
        worst_parameter=worst_name,
        threshold=THRESHOLD,
        per_graph=per_graph,
        pack_error=pack_error,
    )
