"""Certify the exact gradients against central finite differences.

Random small graphs, random parameters, dropout off: the whole-model loss
is differentiated both ways and the worst relative error over every
parameter coordinate is reported. This is the end-to-end contract for the
tape in :mod:`graphmem.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ModelParams, forward, prepare_graph
from .molgraph import SYNTHETIC_ALPHABET, featurize, link_feature_dim, node_feature_dim, random_graph
from .numerics import finite_difference_gradient, max_relative_error
from .training import cross_entropy

DEFAULT_THRESHOLD = 1e-4


@dataclass
class GradcheckReport:
    max_relative_error: float
    worst_parameter: str
    threshold: float
    per_graph: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= self.threshold

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max relative error {self.max_relative_error:.3e} "
            f"(threshold {self.threshold:.1e}, worst parameter {self.worst_parameter!r}, "
            f"{len(self.per_graph)} graphs)"
        )


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
    worst = 0.0
    worst_name = ""
    per_graph: list[float] = []
    for k in range(graphs):
        graph = featurize(random_graph(rng, 3, max_nodes, n_relations), vocab)
        prepared = prepare_graph(graph, config)
        params = ModelParams.initialize(config, seed=int(rng.integers(0, 2**31)))
        # zero-initialized score vectors would hide attention gradients; perturb them
        for name in ("attn.score", "nbr.score"):
            if name in params.tensors:
                params[name].data[...] = rng.normal(0.0, 0.5, size=params[name].data.shape)
        query = np.zeros(2)
        query[int(rng.integers(0, 2))] = 1.0
        label = int(rng.integers(0, 2))

        def loss_value() -> float:
            return cross_entropy(forward(prepared, query, params, hops).probability, label).item()

        params.zero_grads()
        loss = cross_entropy(forward(prepared, query, params, hops).probability, label)
        loss.backward()
        exact = params.grads()
        estimate = finite_difference_gradient(loss_value, params.arrays(), eps=eps)
        err, name = max_relative_error(exact, estimate)
        per_graph.append(err)
        if err >= worst:
            worst, worst_name = err, name
    return GradcheckReport(
        max_relative_error=worst,
        worst_parameter=worst_name,
        threshold=threshold,
        per_graph=per_graph,
    )
