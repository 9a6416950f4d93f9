"""Graph memory networks for molecular activity classification.

A query-conditioned controller attends over a graph-structured,
multi-relational external memory (one cell per atom) for a configurable
number of reasoning hops. Includes a self-contained MOL/SDF parser and
featurizer, circular fingerprints, exact gradients certified by
finite differences, and single-/multi-task training with a CLI.
"""

from .fingerprint import circular_fingerprint, circular_fingerprints
from .gradcheck import GradcheckReport, run_gradient_check
from .model import (
    ForwardResult,
    HopState,
    ModelConfig,
    ModelParams,
    PreparedGraph,
    attentive_read,
    controller_step,
    forward,
    init_state,
    memory_step,
    pack,
    prepare_graph,
)
from .molgraph import (
    AtomNode,
    Edge,
    LabeledExample,
    MolecularGraph,
    MolfileError,
    SyntheticSpec,
    SyntheticSpecError,
    contains_motif,
    detect_ring_edges,
    featurize,
    featurize_all,
    generate_synthetic,
    parse_molfile,
    parse_sdf,
    parse_synthetic_spec,
)
from .training import (
    ExperimentConfig,
    MetricsReport,
    TaskSplit,
    TrainResult,
    adam_step,
    compute_metrics,
    cross_entropy,
    rank_auc,
    split_dataset,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AtomNode",
    "Edge",
    "ExperimentConfig",
    "ForwardResult",
    "GradcheckReport",
    "HopState",
    "LabeledExample",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "MolecularGraph",
    "MolfileError",
    "PreparedGraph",
    "SyntheticSpec",
    "SyntheticSpecError",
    "TaskSplit",
    "TrainResult",
    "adam_step",
    "attentive_read",
    "circular_fingerprint",
    "circular_fingerprints",
    "compute_metrics",
    "contains_motif",
    "controller_step",
    "cross_entropy",
    "detect_ring_edges",
    "featurize",
    "featurize_all",
    "forward",
    "generate_synthetic",
    "init_state",
    "memory_step",
    "pack",
    "parse_molfile",
    "parse_sdf",
    "parse_synthetic_spec",
    "prepare_graph",
    "rank_auc",
    "run_gradient_check",
    "split_dataset",
    "train",
    "__version__",
]
