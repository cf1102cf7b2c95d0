"""repro — a reproduction of SIGMA (ICDE 2025).

SIGMA is a heterophilous graph neural network that replaces iterative
message passing with a single global aggregation through a precomputed,
top-k pruned SimRank matrix.  This package implements the full system in
pure Python (numpy/scipy): the SimRank substrate (exact, linearized and
LocalPush-approximate), a neural-network substrate, SIGMA itself, fourteen
baseline models, synthetic heterophily benchmarks and the experiment
harness that regenerates every table and figure of the paper.

Quickstart
----------
>>> from repro import load_dataset, create_model, Trainer, TrainConfig
>>> dataset = load_dataset("texas", seed=0)
>>> model = create_model("sigma", dataset.graph, rng=0)
>>> result = Trainer(model, TrainConfig(max_epochs=100)).fit(dataset.split(0))
>>> 0.0 <= result.test_accuracy <= 1.0
True

Public API
----------
The supported surface for building on the system is :mod:`repro.api`
(``precompute`` / ``build_model`` / ``run``) together with the config
objects :class:`repro.config.SimRankConfig` and
:class:`repro.config.RunSpec`; see the "Public API" section of
ROADMAP.md.  Everything else is internal and free to be refactored.
"""

from repro.version import __version__
from repro.errors import (
    ConfigError,
    DatasetError,
    ExperimentError,
    GraphError,
    ModelError,
    ReproError,
    SimRankError,
    TrainingError,
)
from repro.config import ExperimentSpec, RunSpec, SimRankConfig
from repro.graphs import Graph, node_homophily
from repro.datasets import Dataset, Split, list_datasets, load_dataset
from repro.simrank import (
    exact_simrank,
    linearized_simrank,
    localpush_simrank,
    simrank_class_statistics,
    simrank_operator,
)
from repro.models import SIGMA, create_model, list_models
from repro.training import TrainConfig, Trainer, evaluate_model, repeated_evaluation
from repro import api
from repro.api import RunResult

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "DatasetError",
    "SimRankError",
    "ConfigError",
    "ModelError",
    "TrainingError",
    "ExperimentError",
    "SimRankConfig",
    "RunSpec",
    "ExperimentSpec",
    "RunResult",
    "api",
    "Graph",
    "node_homophily",
    "Dataset",
    "Split",
    "load_dataset",
    "list_datasets",
    "exact_simrank",
    "linearized_simrank",
    "localpush_simrank",
    "simrank_class_statistics",
    "simrank_operator",
    "SIGMA",
    "create_model",
    "list_models",
    "TrainConfig",
    "Trainer",
    "evaluate_model",
    "repeated_evaluation",
]
